#!/usr/bin/env python3
"""blotto-lab benchmark: fictitious-play throughput and exact-verdict latency.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py                      # every workload, table + record
    python3 perfbench/run.py --workload fp-full --seed 3 --seconds 10 --trace 0

With ``--workload`` the process runs that one workload and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.PER_LAYER`` with
``--trace 1``.  The line before it holds details (tail percentile and sample
count, error messages).  Without ``--workload`` each workload runs twice in
its own process, untraced and traced; the table goes to standard output and
the run record (machine, versions, metrics, tracing overhead) to ``--record``.

Every time is reported in fast-state seconds: measured, then scaled by a
frozen speed probe run between the program's operations, because a small
shared host can switch between speeds up to 1.8 times apart (``speed.py``
says how).  The details line and the run record also give the raw rate and
the probe speed.

End-to-end metrics of one run:
  setup_s       median over SETUP_PROBES fresh processes of the time from
                process start until the package is imported, the inputs are
                generated and one warm-up op has run (less the child's own
                speed probes, scaled by them)
  ops_per_s     median over the run's units (one FP run or resumed pair of
                legs, or one cycle of the verdict mix) of ops completed per
                second of program time; an op is one FP round or one query
  op_p50_ms     median op latency
  op_tail_ms    median over windows of 1000 ops (one window if the run has
                fewer than 2000) of the latency at the highest of p50, p90,
                p99, ... that leaves at least 10 of the window's samples
                beyond it
  peak_rss_mb   peak resident memory of the workload process
  success_rate  1 - error_rate: share of attempted ops that neither raised
                nor failed their output check (error_rate itself is 0 on a
                healthy run, and a metric of 0 has no relative bound)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread; inherited by every child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("fp-full", "fp-sampled-resume", "exact-verdicts")
SETUP_PROBES = 9
TAIL_BEYOND = 10
TAIL_WINDOW = 1000
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


def use_checkout_source() -> None:
    """Import ``blotto_lab`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "blotto_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no blotto_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blotto_lab

    if Path(blotto_lab.__file__).resolve().parent != SRC / "blotto_lab":
        raise SystemExit(f"error: imported blotto_lab from {blotto_lab.__file__}")


def tail(latencies: "list[float]") -> "tuple[float, float, int]":
    """(value, percentile, samples beyond) of one window's tail percentile.

    The tail percentile is the highest of p50, p90, p99, p99.9, ... that
    leaves at least TAIL_BEYOND samples beyond it (nearest-rank method).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    best = (ordered[-1], 100.0, 0)
    for divisor in (2, 10, 100, 1000, 10_000, 100_000, 1_000_000):
        beyond = n // divisor  # nearest rank: the value at rank n - beyond
        if beyond < TAIL_BEYOND:
            break
        best = (ordered[n - beyond - 1], 100.0 - 100.0 / divisor, beyond)
    return best


def windowed_tail(latencies: "list[float]") -> "tuple[float, float, int, int]":
    """(value, percentile, samples per window, windows): median of window tails.

    The ops are cut into consecutive windows of TAIL_WINDOW ops (a shorter
    run is one window; a last partial window is dropped), so that a burst of
    machine noise moves one window's tail, not the run's.
    """
    size = len(latencies) if len(latencies) < 2 * TAIL_WINDOW else TAIL_WINDOW
    windows = [latencies[i : i + size] for i in range(0, len(latencies) - size + 1, size)]
    tails = [tail(window) for window in windows]
    return statistics.median(t[0] for t in tails), tails[0][1], size, len(windows)


def setup_probe(args: argparse.Namespace) -> int:
    """Child process: set up, run the warm-up op, say so, exit.

    It probes its speed first and last, and reports the time that took and
    the factor to scale its set-up time by: ``ready <probe_s> <factor>``.
    """
    from speed import SpeedClock

    clock = SpeedClock("python")
    clock.sample(force=True)
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        WORKLOADS[args.workload](args.seed, workdir, Tracer()).warm_up()
        clock.sample(force=True)
        factor = clock.nominal * len(clock.samples) / sum(clock.samples)
        print(f"ready {clock.probe_s!r} {factor!r}", flush=True)
    return 0


def time_setup(args: argparse.Namespace) -> float:
    """Scaled seconds from spawning a setup probe until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        words = proc.stdout.readline().split()
        ready = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if len(words) != 3 or words[0] != "ready" or code != 0:
        raise SystemExit(f"error: setup probe exited with {code}")
    probe_s, factor = float(words[1]), float(words[2])
    return (ready - start - probe_s) * factor


def run_workload(args: argparse.Namespace) -> int:
    setups = [time_setup(args) for _ in range(SETUP_PROBES)]
    from tracing import PER_LAYER, Tracer, layer_metrics, traced
    from workloads import WORKLOADS, measure

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        workload.warm_up()
        if args.trace:
            # a probe inside an fp_run span is a child span, not fp_run's self time
            workload.clock.sample = tracer.wrap("bench.probe", workload.clock.sample)
            with traced(tracer):
                phase = measure(workload, args.seconds)
        else:
            phase = measure(workload, args.seconds)

    if not phase.latencies:
        print("error: no op completed: " + "; ".join(phase.errors), file=sys.stderr)
        return 1
    tail_s, percentile, window, windows = windowed_tail(phase.latencies)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(phase.latencies),
        "units": phase.units,
        "tail_percentile": percentile,
        "tail_window_ops": window,
        "tail_windows": windows,
        "setup_runs_s": setups,
        "raw_ops_per_s": len(phase.latencies) / phase.program_s,
        "probe_speed": workload.clock.speed(),
        "probe_s": workload.clock.probe_s,
        "errors": phase.errors,
    }
    if args.trace:
        spans = OUT / f"spans-{args.workload}.jsonl"
        tracer.write(str(spans))
        details["spans"] = str(spans.relative_to(ROOT))
        observed = dict(phase.observed, ops=len(phase.latencies), program_s=phase.scaled_s)
        values = layer_metrics(tracer, observed, workload.clock.scaled)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(phase.unit_rates),
            "op_p50_ms": statistics.median(phase.latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (phase.attempted - phase.failed) / phase.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for message in phase.errors:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload: table and run record
# ---------------------------------------------------------------------------


def child_run(args: argparse.Namespace, workload: str, trace: int) -> "tuple[dict, dict]":
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def machine_record() -> dict:
    import numpy
    from blotto_lab import kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    # git must not look above the checkout, which need not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": has_numba,
        "kernel_backend": kernels.get_kernels().name,
    }


def run_all(args: argparse.Namespace) -> int:
    from speed import NOMINAL
    from workloads import GOLDEN_SEED

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    record = dict(machine_record(), seed=args.seed, golden_seed=GOLDEN_SEED,
                  seconds=args.seconds, probe_nominal_s=NOMINAL, workloads={})
    for name in WORKLOAD_NAMES:
        details, plain = child_run(args, name, 0)
        traced_details, layered = child_run(args, name, 1)
        e2e = {key: m["value"] for key, m in plain["metrics"].items()}
        layers = {key: m["value"] for key, m in layered["metrics"].items()}
        record["workloads"][name] = {
            "why": why[name],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "error_rate": plain["failed"] / plain["attempted"],
            "end_to_end": e2e,
            "tail_percentile": details["tail_percentile"],
            "tail_window_ops": details["tail_window_ops"],
            "tail_windows": details["tail_windows"],
            "raw_ops_per_s": details["raw_ops_per_s"],
            "probe_speed": details["probe_speed"],
            "tracing_overhead_ops_per_s": e2e["ops_per_s"] - layers["traced.ops_per_s"],
            "per_layer": layers,
            "traced_failed": layered["failed"],
            "errors": details["errors"] + traced_details["errors"],
        }
        print(f"== {name}  (seed {args.seed}, {details['ops']} ops)")
        for key, unit in END_TO_END:
            note = ""
            if key == "op_tail_ms":
                note = (f"  (median over {details['tail_windows']} windows of "
                        f"{details['tail_window_ops']} ops of p{details['tail_percentile']:g})")
            print(f"  {key:<14} {e2e[key]:>14.4f} {unit}{note}")
        print(f"  {'error_rate':<14} {plain['failed'] / plain['attempted']:>14.4f} ratio")
        overhead = e2e["ops_per_s"] - layers["traced.ops_per_s"]
        print(f"  tracing overhead: {overhead:.2f} of {e2e['ops_per_s']:.2f} ops/s "
              f"({100 * overhead / e2e['ops_per_s']:.1f}%)")
        for key, value in layers.items():
            print(f"    {key:<42} {value:>14.6g}")
    path = Path(args.record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"run record: {path}")
    return 0 if all(w["failed"] == 0 and w["traced_failed"] == 0
                    for w in record["workloads"].values()) else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all of them, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="program time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(OUT / "record.json"),
                        help="where the all-workload run writes its record")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
