"""Tests of the benchmark itself: its checks can fail and its trace counts add up.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run.use_checkout_source()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blotto_lab import analysis, cli, learning  # noqa: E402


def one_unit(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.GOLDEN_SEED, str(tmp_path), tracing.Tracer())
    workload.warm_up()
    return workloads.measure(workload, 0)


@pytest.mark.parametrize("name", sorted(workloads.GOLDEN))
def test_golden_seed_passes(name, tmp_path):
    phase = one_unit(name, tmp_path)
    assert phase.attempted > 0
    assert phase.failed == 0, phase.errors


@pytest.mark.parametrize(
    "name,key",
    [(name, key) for name, digests in sorted(workloads.GOLDEN.items()) for key in digests],
)
def test_corrupted_golden_digest_makes_error_rate_positive(name, key, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.GOLDEN, name, dict(workloads.GOLDEN[name], **{key: "0" * 64}))
    phase = one_unit(name, tmp_path)
    assert phase.failed / phase.attempted > 0
    assert any("golden" in message for message in phase.errors)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_raising_ops_count_as_failed_and_the_run_ends(name, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    workload = workloads.WORKLOADS[name](1, str(tmp_path), tracing.Tracer())
    workload.warm_up()
    monkeypatch.setattr(learning, "fp_run", broken)
    monkeypatch.setattr(cli, "main", broken)
    phase = workloads.measure(workload, 0.01)
    assert phase.attempted > 0
    assert phase.failed == phase.attempted
    assert "injected" in phase.errors[0]


def test_fp_invariants_catch_a_broken_state():
    spec = workloads.FullGame.spec
    state = learning.fp_run(spec, 50)
    assert workloads.fp_problems(state, 50) == []
    assert workloads.fp_problems(state, 51)  # wrong round count
    partition = next(iter(state.counts_a))
    state.counts_a[partition] += 1
    problems = workloads.fp_problems(state, 50)
    assert any("counts_a sum" in p for p in problems)
    assert any("hist_a" in p for p in problems)
    state.counts_a[partition] -= 1
    state.discovery_b.pop(next(iter(state.discovery_b)))
    assert any("discovery_b" in p for p in workloads.fp_problems(state, 50))


def test_fp_invariants_catch_a_negative_gap():
    spec = workloads.SampledResume.spec
    state = learning.fp_run(spec, 20, trace_every=10)
    assert workloads.fp_problems(state, 20) == []
    row = state.trace[-1]
    state.trace[-1] = dataclasses.replace(row, br_gap=Fraction(-1, 7))
    assert any("br_gap" in p for p in workloads.fp_problems(state, 20))


def test_verdict_checks_catch_wrong_outputs(tmp_path):
    workload = workloads.ExactVerdicts(3, str(tmp_path), tracing.Tracer())
    tampered = {
        "verify": ("gap_a", "1/1000"),
        "classify": ("threshold", "7/2"),
        "dominate": ("min_gap", "-99/1"),
        "psne": ("best_deviation", "0/1"),
    }
    seen = set()
    for query in workload.cycle():
        code, text = workload.ask(query)
        assert workloads.verdict_problems(query, code, text) == []
        key, value = tampered[query.kind]
        obj = dict(json.loads(text), **{key: value})
        assert workloads.verdict_problems(query, code, json.dumps(obj)), query.argv
        assert workloads.verdict_problems(query, 2, text)
        seen.add(query.kind)
    assert seen == set(tampered)


def test_traced_fp_full_counts_two_lex_calls_per_round(tmp_path):
    tracer = tracing.Tracer()
    workload = workloads.FullGame(1, str(tmp_path), tracer)
    workload.warm_up()
    original = learning.fp_run
    with tracing.traced(tracer):
        phase = workloads.measure(workload, 0)
    assert learning.fp_run is original
    values = tracing.layer_metrics(
        tracer, dict(phase.observed, ops=len(phase.latencies), program_s=phase.program_s)
    )
    assert phase.failed == 0
    assert values["kernels.lex.calls"] == 2 * (workloads.FULL_ROUNDS - 1)
    assert values["kernels.lex.repeat_ratio"] == pytest.approx(0.5, abs=1e-3)
    assert values["kernels.python.calls"] == 0
    assert values["kernels.sampled.calls"] == 0
    assert 0 < values["learning.fp_run.self_s"] < phase.program_s
    assert values["analysis.best_response.calls"] == 0
    assert set(values) == {name for name, _, _ in tracing.PER_LAYER}


def test_traced_exact_verdicts_leave_fp_layers_idle(tmp_path):
    tracer = tracing.Tracer()
    workload = workloads.ExactVerdicts(1, str(tmp_path), tracer)
    workload.warm_up()
    originals = (cli.main, analysis.best_response)
    with tracing.traced(tracer):
        phase = workloads.measure(workload, 0)
    assert (cli.main, analysis.best_response) == originals
    values = tracing.layer_metrics(
        tracer, dict(phase.observed, ops=len(phase.latencies), program_s=phase.program_s)
    )
    assert phase.failed == 0
    for name, _, _ in tracing.PER_LAYER:
        if name.startswith(("kernels.", "learning.")):
            assert values[name] == 0, name
    assert values["analysis.best_response.calls"] > 0
    assert values["cli.main.self_s"] > 0
    # every span of a query shares that query's op id
    ops = {op for _, _, _, _, op in tracer.spans}
    assert ops == set(range(1, len(phase.latencies) + 1))


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1, 1),
        ("analysis.verify_equilibrium", 1.0, 7.0, 0, 1),
        ("analysis.best_response", 2.0, 4.0, 1, 1),
        ("analysis.best_response", 4.0, 5.0, 1, 1),
    ]
    values = tracing.layer_metrics(tracer, {"ops": 1, "program_s": 10.0})
    assert values["cli.main.self_s"] == 4.0
    assert values["analysis.verify_equilibrium.busy_s"] == 6.0
    assert values["analysis.best_response.self_s"] == 3.0
    assert values["analysis.best_response.call_ms_p50"] == 1500.0


def test_speed_clock_scales_each_piece_by_the_samples_around_it():
    clock = speed.SpeedClock("python")
    clock.nominal = 1.0
    clock.times, clock.samples = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert clock.scaled(0.0, 0.5) == 0.5  # before the first sample: that sample alone
    assert clock.scaled(1.5, 1.75) == pytest.approx(0.25 / 1.5)
    assert clock.scaled(3.2, 3.4) == pytest.approx(0.2 / 4.0)  # after the last one
    assert clock.scaled(0.5, 3.5) == pytest.approx(0.5 + 1 / 1.5 + 1 / 3.0 + 0.5 / 4.0)


def test_speed_clock_probes_at_most_every_interval():
    clock = speed.SpeedClock("numpy")
    clock.sample()
    clock.sample()
    assert len(clock.samples) == 1
    clock.sample(force=True)
    assert len(clock.samples) == 2
    assert clock.probe_s > 0 and clock.speed() > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 1000)])[1:] == (90.0, 99)
    value, percentile, beyond = run.tail([float(i) for i in range(1, 20001)])
    assert (value, percentile, beyond) == (19980.0, 99.9, 20)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fp-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_declares_what_the_runs_report():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
