"""Layer spans recorded from outside the program.

``traced(tracer)`` swaps the public entry points of ``kernels``, ``learning``,
``analysis``, ``mixed``, ``constructors`` and ``cli`` for wrappers that record
a span (name, start, end, parent, op id) per call, then restores them.  Spans
stay in memory until the run ends.  Nothing under ``src/`` is edited: every
wrapped name is a module attribute or a method that the program looks up at
call time.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``PER_LAYER``.  A layer's self time is its span's duration minus the time its
direct child spans cover; on one thread children never overlap, so that is a
plain sum.  Durations are measured by a function of (start, end), so that a
run can report them in the scaled seconds of ``speed.SpeedClock``.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (name, unit, better): every metric a traced run reports, in report order.
PER_LAYER = (
    ("bench.ops", "count", "higher"),
    ("bench.program_s", "s", "lower"),
    ("traced.ops_per_s", "1/s", "higher"),
    ("kernels.lex.calls", "count", "lower"),
    ("kernels.lex.busy_s", "s", "lower"),
    ("kernels.lex.call_us_p50", "us", "lower"),
    ("kernels.lex.repeat_ratio", "ratio", "lower"),
    ("kernels.sampled.calls", "count", "lower"),
    ("kernels.sampled.busy_s", "s", "lower"),
    ("kernels.sampled.call_us_p50", "us", "lower"),
    ("kernels.python.calls", "count", "lower"),
    ("learning.fp_run.calls", "count", "lower"),
    ("learning.fp_run.self_s", "s", "lower"),
    ("learning.save_checkpoint.calls", "count", "lower"),
    ("learning.save_checkpoint.busy_s", "s", "lower"),
    ("learning.checkpoint_bytes", "bytes", "lower"),
    ("learning.load_checkpoint.busy_s", "s", "lower"),
    ("learning.trace_rows", "count", "higher"),
    ("learning.rank_report.busy_s", "s", "lower"),
    ("learning.support_size", "count", "higher"),
    ("analysis.verify_equilibrium.calls", "count", "lower"),
    ("analysis.verify_equilibrium.busy_s", "s", "lower"),
    ("analysis.best_response.calls", "count", "lower"),
    ("analysis.best_response.self_s", "s", "lower"),
    ("analysis.best_response.call_ms_p50", "ms", "lower"),
    ("analysis.best_response.repeat_ratio", "ratio", "lower"),
    ("analysis.classify.self_s", "s", "lower"),
    ("analysis.weakly_dominates.busy_s", "s", "lower"),
    ("analysis.psne_check.self_s", "s", "lower"),
    ("mixed.marginals.calls", "count", "lower"),
    ("mixed.marginals.busy_s", "s", "lower"),
    ("mixed.expected_payoff_marginal.busy_s", "s", "lower"),
    ("constructors.build.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
)

# Family builders the CLI and ``analysis.classify`` reach through the module.
_BUILDERS = (
    "canonical_pair_equilibrium",
    "pairwise_fixed_sum_equilibrium",
    "independent_pairs_strategy",
    "parity_strategy",
    "good_strategy_witness",
    "uniform_marginal_solver",
)


class Tracer:
    """In-memory span store for one benchmark process.

    ``enabled`` is cleared while the benchmark checks outputs, so that its
    own calls into the program leave no spans.  ``op_id`` is advanced by the
    workload at each op boundary; every span records the op it started in.
    """

    def __init__(self) -> None:
        self.spans: "list[tuple[str, float, float, int, int] | None]" = []
        self.counts: Counter = Counter()
        self.enabled = True
        self.op_id = 0
        self._stack: "list[int]" = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span named ``name``.

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` run
        outside the span, so the bookkeeping they do is not charged to it.
        """

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                row = {"id": index, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")


def _repeat_counter(tracer: Tracer, key: str, same):
    """A ``before`` hook counting calls whose first argument equals the last one's."""
    last = []

    def before(args, kwargs):
        current = args[0]
        if last and same(last[0], current):
            tracer.counts[key] += 1
        last[:] = [current]

    return before


def _same_table(a, b) -> bool:
    return len(a) == len(b) and bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _same_profile(a, b) -> bool:
    return a is b or a == b


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch the program's entry points to record spans into ``tracer``."""
    from blotto_lab import analysis, cli, constructors, kernels, learning, mixed

    patched = []

    def patch(owner, attr, replacement):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    lex_repeat = _repeat_counter(tracer, "kernels.lex.repeats", _same_table)
    resolve = learning.get_kernels

    def get_kernels(name=None):
        ks = resolve(name)

        def count_backend(args, kwargs):
            tracer.counts[f"kernels.{ks.name}.calls"] += 1

        def lex_before(args, kwargs):
            count_backend(args, kwargs)
            lex_repeat(args, kwargs)

        return kernels.KernelSet(
            ks.name,
            tracer.wrap("kernels.lex", ks.lex, before=lex_before),
            tracer.wrap("kernels.sampled", ks.sampled, before=count_backend),
        )

    def checkpoint_bytes(result, args, kwargs):
        tracer.counts["learning.checkpoint_bytes"] += os.path.getsize(args[1])

    patch(learning, "get_kernels", get_kernels)
    patch(learning, "fp_run", tracer.wrap("learning.fp_run", learning.fp_run))
    patch(learning, "save_checkpoint",
          tracer.wrap("learning.save_checkpoint", learning.save_checkpoint,
                      after=checkpoint_bytes))
    patch(learning, "load_checkpoint",
          tracer.wrap("learning.load_checkpoint", learning.load_checkpoint))
    patch(learning, "rank_report", tracer.wrap("learning.rank_report", learning.rank_report))

    br_repeat = _repeat_counter(tracer, "analysis.best_response.repeats", _same_profile)
    patch(analysis, "best_response",
          tracer.wrap("analysis.best_response", analysis.best_response, before=br_repeat))
    for attr in ("verify_equilibrium", "classify", "weakly_dominates", "psne_check"):
        patch(analysis, attr, tracer.wrap(f"analysis.{attr}", getattr(analysis, attr)))
    payoff = tracer.wrap("mixed.expected_payoff_marginal", mixed.expected_payoff_marginal)
    patch(analysis, "expected_payoff_marginal", payoff)
    patch(mixed, "expected_payoff_marginal", payoff)
    for cls in vars(mixed).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, mixed.MixedStrategy)
            and cls is not mixed.MixedStrategy
            and "marginals" in cls.__dict__
        ):
            patch(cls, "marginals", tracer.wrap("mixed.marginals", cls.__dict__["marginals"]))
    for attr in _BUILDERS:
        patch(constructors, attr, tracer.wrap("constructors.build", getattr(constructors, attr)))
    patch(cli, "main", tracer.wrap("cli.main", cli.main))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, observed: dict, duration=None) -> "dict[str, float]":
    """Per-layer metrics from the recorded spans.

    ``observed`` carries what the workload read off the program's outputs
    (trace rows, support size) and the run totals (ops, program time).
    ``duration(start, end)`` measures a span; by default it is ``end - start``.
    """
    if duration is None:
        duration = lambda start, end: end - start  # noqa: E731
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)  # span index -> time its children cover
    durations: defaultdict = defaultdict(list)
    lengths = [duration(start, end) for _, start, end, _, _ in tracer.spans]
    for (name, _, _, parent, _), length in zip(tracer.spans, lengths):
        calls[name] += 1
        busy[name] += length
        durations[name].append(length)
        if parent >= 0:
            child[parent] += length
    self_s: defaultdict = defaultdict(float)
    for index, ((name, _, _, _, _), length) in enumerate(zip(tracer.spans, lengths)):
        self_s[name] += length - child[index]

    def p50(name: str, scale: float) -> float:
        return statistics.median(durations[name]) * scale if durations[name] else 0.0

    def ratio(key: str, name: str) -> float:
        return tracer.counts[key] / calls[name] if calls[name] else 0.0

    return {
        "bench.ops": observed["ops"],
        "bench.program_s": observed["program_s"],
        "traced.ops_per_s": observed["ops"] / observed["program_s"],
        "kernels.lex.calls": calls["kernels.lex"],
        "kernels.lex.busy_s": busy["kernels.lex"],
        "kernels.lex.call_us_p50": p50("kernels.lex", 1e6),
        "kernels.lex.repeat_ratio": ratio("kernels.lex.repeats", "kernels.lex"),
        "kernels.sampled.calls": calls["kernels.sampled"],
        "kernels.sampled.busy_s": busy["kernels.sampled"],
        "kernels.sampled.call_us_p50": p50("kernels.sampled", 1e6),
        "kernels.python.calls": tracer.counts["kernels.python.calls"],
        "learning.fp_run.calls": calls["learning.fp_run"],
        "learning.fp_run.self_s": self_s["learning.fp_run"],
        "learning.save_checkpoint.calls": calls["learning.save_checkpoint"],
        "learning.save_checkpoint.busy_s": busy["learning.save_checkpoint"],
        "learning.checkpoint_bytes": tracer.counts["learning.checkpoint_bytes"],
        "learning.load_checkpoint.busy_s": busy["learning.load_checkpoint"],
        "learning.trace_rows": observed.get("trace_rows", 0),
        "learning.rank_report.busy_s": busy["learning.rank_report"],
        "learning.support_size": observed.get("support_size", 0),
        "analysis.verify_equilibrium.calls": calls["analysis.verify_equilibrium"],
        "analysis.verify_equilibrium.busy_s": busy["analysis.verify_equilibrium"],
        "analysis.best_response.calls": calls["analysis.best_response"],
        "analysis.best_response.self_s": self_s["analysis.best_response"],
        "analysis.best_response.call_ms_p50": p50("analysis.best_response", 1e3),
        "analysis.best_response.repeat_ratio": ratio(
            "analysis.best_response.repeats", "analysis.best_response"
        ),
        "analysis.classify.self_s": self_s["analysis.classify"],
        "analysis.weakly_dominates.busy_s": busy["analysis.weakly_dominates"],
        "analysis.psne_check.self_s": self_s["analysis.psne_check"],
        "mixed.marginals.calls": calls["mixed.marginals"],
        "mixed.marginals.busy_s": busy["mixed.marginals"],
        "mixed.expected_payoff_marginal.busy_s": busy["mixed.expected_payoff_marginal"],
        "constructors.build.busy_s": busy["constructors.build"],
        "cli.main.self_s": self_s["cli.main"],
    }
