"""Command-line interface.

One subcommand per operation family; all outputs are deterministic functions
of the arguments (plus the seed where one applies).  Rationals are printed in
lowest terms as "num/den".  Precondition violations, file errors and games
too large for the memory at hand exit with status 2, internal failures with
1.  File outputs start with a provenance comment line carrying the tool
version and the full invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from fractions import Fraction
from typing import IO, Iterator, Sequence

from . import __version__
from .core import BlottoError, GameSpec, PreconditionError
from .space import (
    count_ordered,
    count_unordered,
    enumerate_allocations,
    enumerate_partitions,
)
from .mixed import write_strategy
from . import analysis, constructors, learning
from .core import battle_outcome, payoff, payoff_sum_identity

MAX_ALPHA_DECIMALS = 12


def frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_alpha(text: str) -> Fraction:
    """Exact parse of 'p/q' or a short decimal string; floats never appear."""
    text = text.strip()
    if "." in text:
        digits = text.split(".", 1)[1]
        if len(digits) > MAX_ALPHA_DECIMALS:
            raise PreconditionError(
                f"decimal tie value {text!r} has more than {MAX_ALPHA_DECIMALS} "
                "fractional digits; pass an exact fraction like 'p/q'"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse tie value {text!r}") from exc


def parse_bids(text: str) -> "tuple[int, ...]":
    try:
        return tuple(int(cell) for cell in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse bid vector {text!r}") from exc


def build_spec(args: argparse.Namespace) -> GameSpec:
    return GameSpec(
        args.n,
        args.k,
        parse_alpha(args.alpha),
        allow_any_tie_value=args.alpha_override,
    )


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="resource budget")
    parser.add_argument("--k", type=int, required=True, help="number of battlefields")
    parser.add_argument(
        "--alpha", default="0", help="tie value as 'p/q' or decimal string (default 0)"
    )
    parser.add_argument(
        "--alpha-override",
        action="store_true",
        help="admit tie values outside [0, 2]",
    )


def provenance(argv: Sequence[str]) -> str:
    return f"blotto-lab {__version__} :: blotto " + " ".join(argv)


@contextlib.contextmanager
def open_output(path: "str | None", argv: Sequence[str]) -> Iterator[IO[str]]:
    """stdout for no path or "-", else the file, opened with a provenance line."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance(argv)}\n")
        yield fh


def emit(args: argparse.Namespace, obj: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def cmd_count(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    ordered = count_ordered(spec)
    unordered = count_unordered(spec)
    emit(args, {"ordered": ordered, "unordered": unordered}, f"{ordered} {unordered}")
    return 0


def cmd_payoff(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    s, t = parse_bids(args.s), parse_bids(args.t)
    value = payoff(s, t, spec)
    out = battle_outcome(s, t, spec)
    obj = {
        "payoff": frac(value),
        "payoff_opponent": frac(payoff(t, s, spec)),
        "payoff_sum": frac(payoff_sum_identity(s, t, spec)),
        "wins": out.wins,
        "ties": out.ties,
        "losses": out.losses,
    }
    emit(args, obj, frac(value))
    return 0


def parse_target(args: argparse.Namespace, *families: "str | None") -> "tuple[int, ...] | None":
    """The --s bids that the witness family needs, if given.

    ``--s`` means nothing to the other families, so it is an error unless
    one of ``families`` is the witness.
    """
    if args.s is None:
        return None
    if "witness" not in families:
        raise PreconditionError("--s applies only to --family witness")
    return parse_bids(args.s)


def cmd_construct(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    sigma = constructors.FAMILIES[args.family](spec, parse_target(args, args.family))
    with open_output(args.output, argv) as fh:
        write_strategy(sigma, fh)
    return 0


def cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    s = parse_target(args, args.family, args.family_b)
    sigma_a = constructors.FAMILIES[args.family](spec, s)
    if args.family_b in (None, args.family):
        sigma_b = sigma_a
    else:
        sigma_b = constructors.FAMILIES[args.family_b](spec, s)
    report = analysis.verify_equilibrium(sigma_a, sigma_b, spec)
    obj = {
        "is_equilibrium": report.is_equilibrium,
        "gap_a": frac(report.gap_a),
        "gap_b": frac(report.gap_b),
        "payoff_a": frac(report.payoff_a),
        "payoff_b": frac(report.payoff_b),
        "best_reply_a": list(report.best_reply_a),
        "best_reply_b": list(report.best_reply_b),
    }
    emit(
        args,
        obj,
        f"equilibrium={report.is_equilibrium} gaps=({frac(report.gap_a)}, {frac(report.gap_b)}) "
        f"payoffs=({frac(report.payoff_a)}, {frac(report.payoff_b)})",
    )
    return 0


def cmd_classify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    s = parse_bids(args.s)
    if args.constant_sum:
        verdict = analysis.classify_constant_sum(s, spec)
        emit(args, {"verdict": verdict.value}, verdict.value)
        return 0
    result = analysis.classify(s, spec)
    obj = {
        "verdict": result.verdict.value,
        "threshold": frac(result.threshold),
        "active_fields": result.active_fields,
        "witness_support": result.witness.support_size() if result.witness else None,
    }
    emit(args, obj, f"{result.verdict.value} threshold={frac(result.threshold)}")
    return 0


def cmd_dominate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    report = analysis.weakly_dominates(parse_bids(args.candidate), parse_bids(args.target), spec)
    obj = {
        "dominates": report.dominates,
        "min_gap": frac(report.min_gap),
        "max_gap": frac(report.max_gap),
        "min_witness": list(report.min_witness),
        "max_witness": list(report.max_witness),
    }
    emit(args, obj, f"dominates={report.dominates} min={frac(report.min_gap)} max={frac(report.max_gap)}")
    return 0


def cmd_scan_alpha(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    values = [parse_alpha(cell) for cell in args.alphas.split(",")]
    rows = analysis.alpha_robustness_scan(spec, values)
    records = [
        {
            "alpha": frac(row.tie_value),
            "profile_a": row.profile_a,
            "profile_b": row.profile_b,
            "is_equilibrium": row.report.is_equilibrium,
            "gap_a": frac(row.report.gap_a),
            "gap_b": frac(row.report.gap_b),
            "payoff_a": frac(row.report.payoff_a),
            "payoff_b": frac(row.report.payoff_b),
        }
        for row in rows
    ]
    if args.format == "json":
        print(json.dumps(records, sort_keys=True))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
    return 0


def cmd_psne(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    report = analysis.psne_check(parse_bids(args.s), spec)
    obj = {
        "is_psne": report.is_psne,
        "stay_payoff": frac(report.stay_payoff),
        "best_deviation": frac(report.best_deviation),
        "deviation": list(report.deviation),
    }
    emit(
        args,
        obj,
        f"psne={report.is_psne} stay={frac(report.stay_payoff)} "
        f"deviation={frac(report.best_deviation)}",
    )
    return 0


def cmd_enumerate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    stream = (
        enumerate_partitions(spec, cap=args.cap)
        if args.what == "partitions"
        else enumerate_allocations(spec, cap=args.cap)
    )
    for vec in stream:
        print(",".join(map(str, vec)))
    return 0


def cmd_fp(args: argparse.Namespace, argv: Sequence[str]) -> int:
    spec = build_spec(args)
    if args.trace_every is not None and not args.trace:
        raise PreconditionError("--trace-every needs --trace")
    if args.checkpoint_every is not None and not args.checkpoint:
        raise PreconditionError("--checkpoint-every needs --checkpoint")
    if args.report_top < 0:
        raise PreconditionError(f"--report-top must be >= 0, got {args.report_top}")
    trace_every = 1000 if args.trace_every is None else args.trace_every
    progress = None
    if args.progress:
        step = max(args.rounds // 100, 1)

        def progress(done: int, total: int) -> None:
            if done % step == 0 or done == total:
                print(f"round {done}/{total}", file=sys.stderr)

    state = learning.fp_run(
        spec,
        args.rounds,
        init=parse_bids(args.init) if args.init else None,
        mode=args.mode,
        seed=args.seed,
        tie_break=args.tie_break,
        trace_every=trace_every if args.trace else None,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        progress=progress,
    )
    report = learning.rank_report(state, args.report_top)
    with open_output(args.output, argv) as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "partition", "probability", "first_round"])
        for row in report.rows:
            writer.writerow(
                [row.rank, "-".join(map(str, row.partition)), frac(row.probability), row.first_round]
            )
    print(
        f"support={report.support_size} rounds={report.rounds_played}",
        file=sys.stderr,
    )
    if args.trace:
        with open_output(args.trace, argv) as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "tv_to_uniform", "br_gap"])
            for row in state.trace:
                writer.writerow([row.round_index, frac(row.tv_to_uniform), frac(row.br_gap)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blotto",
        description="Exact laboratory for discrete Colonel Blotto games with flexible tie-breaking.",
    )
    parser.add_argument("--version", action="version", version=f"blotto-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count pure strategies in both representations")
    add_spec_arguments(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("payoff", help="exact payoff of one pure matchup")
    add_spec_arguments(p)
    p.add_argument("--s", required=True, help="own bids, comma separated")
    p.add_argument("--t", required=True, help="opponent bids, comma separated")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("construct", help="write a named strategy in the text format")
    add_spec_arguments(p)
    p.add_argument("--family", choices=constructors.FAMILIES, required=True)
    p.add_argument("--s", help="target bids for --family witness")
    p.add_argument("--output", "-o", default=None, help="file path (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exact equilibrium check for a profile")
    add_spec_arguments(p)
    p.add_argument("--family", choices=constructors.FAMILIES, required=True)
    p.add_argument("--family-b", choices=constructors.FAMILIES, default=None)
    p.add_argument("--s", help="target bids when a side is the witness family")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="good / never-good / unknown verdict")
    add_spec_arguments(p)
    p.add_argument("--s", required=True)
    p.add_argument(
        "--constant-sum",
        action="store_true",
        help="use the tie-value-1 iff characterization (binary verdict)",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dominate", help="exact weak-dominance check")
    add_spec_arguments(p)
    p.add_argument("--candidate", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("scan-alpha", help="verify named profiles across tie values")
    add_spec_arguments(p)
    p.add_argument("--alphas", required=True, help="comma-separated tie values")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan_alpha)

    p = sub.add_parser("psne", help="is (s, s) a pure-strategy equilibrium?")
    add_spec_arguments(p)
    p.add_argument("--s", required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_psne)

    p = sub.add_parser("enumerate", help="stream allocations or partitions")
    add_spec_arguments(p)
    p.add_argument("--what", choices=("allocations", "partitions"), default="allocations")
    p.add_argument("--cap", type=int, default=10**7)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fp", help="fictitious play over the Lotto space")
    add_spec_arguments(p)
    p.add_argument("--rounds", type=int, required=True)
    resumed = "; with --resume, the checkpoint's"
    p.add_argument("--mode", choices=learning.MODES, help=f"default two-sided{resumed}")
    p.add_argument(
        "--init", help=f"first-round partition, comma separated (default most even{resumed})"
    )
    p.add_argument("--seed", type=int, help=f"default 0{resumed}")
    p.add_argument("--tie-break", choices=learning.TIE_BREAKS, help=f"default lex{resumed}")
    p.add_argument("--report-top", type=int, default=20)
    p.add_argument("--output", "-o", default=None, help="rank report CSV (default stdout)")
    p.add_argument("--trace", default=None, help="convergence trace CSV path")
    p.add_argument("--trace-every", type=int, help="rounds between trace rows (default 1000)")
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--resume", default=None, help="resume from a checkpoint file")
    p.add_argument("--progress", action="store_true", help="report progress on stderr")
    p.set_defaults(func=cmd_fp)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv: "Sequence[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except (PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlottoError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # report it once the except clause has let go of the frames' tables
    print(f"error: not enough memory for this game (blotto {args.command})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
