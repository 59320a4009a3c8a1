"""Command-line interface: outputs, formats, exit codes, determinism."""

import argparse
import hashlib
import io
import json

import pytest

from blotto_lab import GameSpec, kernels, read_strategy
from blotto_lab.cli import build_parser, main, parse_alpha
from blotto_lab.constructors import FAMILIES
from blotto_lab.core import PreconditionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAlpha:
    def test_fraction_and_decimal(self):
        from fractions import Fraction

        assert parse_alpha("3/2") == Fraction(3, 2)
        assert parse_alpha("0.5") == Fraction(1, 2)
        assert parse_alpha("1") == 1

    def test_rejects_long_decimals(self):
        with pytest.raises(PreconditionError):
            parse_alpha("0.1234567890123")

    def test_rejects_garbage(self):
        with pytest.raises(PreconditionError):
            parse_alpha("a/b")


class TestCount:
    def test_full_game_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "120", "--k", "6")
        assert code == 0
        assert out.split() == ["234531275", "436140"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "6", "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"ordered": 28, "unordered": 7}

    def test_large_budget_two_fields(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2000", "--k", "2")
        assert code == 0
        assert out.split() == ["2001", "1001"]

    def test_huge_budget_two_fields(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "50000000", "--k", "2")
        assert code == 0
        assert out == "50000001 25000001\n"


class TestPayoff:
    def test_example_values(self, capsys):
        code, out, _ = run(
            capsys,
            "payoff", "--n", "120", "--k", "6", "--alpha", "1",
            "--s", "115,1,1,1,1,1", "--t", "119,1,0,0,0,0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["payoff"] == "9/2"
        assert obj["wins"] == 4 and obj["ties"] == 1 and obj["losses"] == 1

    def test_invalid_allocation_exits_2(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--n", "6", "--k", "3", "--s", "1,2,3", "--t", "7,0,0"
        )
        assert code == 2
        assert "error" in err


class TestConstruct:
    def test_canonical_stdout(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "6", "--k", "2", "--family", "canonical"
        )
        assert code == 0
        sigma = read_strategy(io.StringIO(out))
        assert sigma.support_size() == 7

    def test_file_output_carries_provenance(self, capsys, tmp_path):
        path = tmp_path / "sigma.txt"
        code, _, _ = run(
            capsys,
            "construct", "--n", "8", "--k", "4", "--family", "solver",
            "--output", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("# blotto-lab")
        assert "construct" in text.splitlines()[0]
        sigma = read_strategy(io.StringIO(text))
        assert sigma.spec.budget == 8

    def test_witness_needs_target(self, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "8", "--k", "4", "--family", "witness"
        )
        assert code == 2
        assert "witness" in err

    def test_odd_battlefields_canonical_fails_but_solver_works(self, capsys):
        code, _, _ = run(capsys, "construct", "--n", "6", "--k", "3", "--family", "canonical")
        assert code == 2
        code, out, _ = run(capsys, "construct", "--n", "6", "--k", "3", "--family", "solver")
        assert code == 0
        assert read_strategy(io.StringIO(out)).support_size() == 13


class TestFamilies:
    GAMES = {"witness": (12, 4, (6, 1, 3, 2)), "solver": (6, 3, None)}

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_construct_round_trips(self, capsys, tmp_path, family):
        n, k, s = self.GAMES.get(family, (12, 4, None))
        path = tmp_path / f"{family}.txt"
        argv = ["construct", "--n", str(n), "--k", str(k), "--family", family, "-o", str(path)]
        if s is not None:
            argv += ["--s", ",".join(map(str, s))]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        back = read_strategy(io.StringIO(path.read_text()))
        assert back.spec == GameSpec(n, k)
        assert dict(back.atoms()) == dict(FAMILIES[family](GameSpec(n, k), s).atoms())

    def test_family_choices_are_the_registry(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, dests in (("construct", ("family",)), ("verify", ("family", "family_b"))):
            actions = {a.dest: a for a in sub.choices[command]._actions}
            for dest in dests:
                assert list(actions[dest].choices) == list(FAMILIES)


class TestVerify:
    def test_canonical_full_game(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "120", "--k", "6", "--alpha", "0", "--family", "canonical",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["is_equilibrium"] is True
        assert obj["payoff_a"] == "120/41"
        assert obj["gap_a"] == "0/1"

    def test_mixed_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "8", "--k", "4", "--alpha", "3/2",
            "--family", "parity-odd", "--family-b", "parity-even",
        )
        assert code == 0
        assert json.loads(out)["is_equilibrium"] is False


    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--family", "canonical"),
            ("verify", "--family", "canonical", "--family-b", "pairs"),
            ("construct", "--family", "canonical"),
        ],
    )
    def test_stray_target_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", "12", "--k", "4", "--s", "1,2,3,6")
        assert code == 2
        assert out == ""
        assert "--s" in err

    def test_target_for_one_witness_side(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "12", "--k", "4", "--family", "canonical",
            "--family-b", "witness", "--s", "6,1,3,2",
        )
        assert code == 0
        assert json.loads(out)["is_equilibrium"] is True

    def test_solver_past_its_orbit_cap_exits_2(self, capsys):
        # a size cap is a precondition of the input, not an internal fault
        code, out, err = run(capsys, "verify", "--n", "120", "--k", "6", "--family", "solver")
        assert (code, out) == (2, "")
        assert err.startswith("error: more than 2000 ")
        assert "cap of 2000 orbits" in err


class TestClassify:
    def test_never_good_two_fields(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--n", "120", "--k", "6", "--alpha", "0", "--s", "60,60,0,0,0,0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "never_good"
        assert obj["threshold"] == "120/41"  # 720/246 in lowest terms

    def test_good_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--n", "120", "--k", "6", "--alpha", "0", "--s", "40,40,40,0,0,0",
        )
        obj = json.loads(out)
        assert obj["verdict"] == "good"
        assert obj["witness_support"] == 68921

    def test_constant_sum_binary(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--n", "120", "--k", "6", "--alpha", "1",
            "--s", "41,39,20,20,0,0", "--constant-sum",
        )
        assert json.loads(out)["verdict"] == "never_good"


class TestDominate:
    def test_constant_sum_example(self, capsys):
        code, out, _ = run(
            capsys,
            "dominate", "--n", "120", "--k", "6", "--alpha", "1",
            "--candidate", "115,1,1,1,1,1", "--target", "120,0,0,0,0,0",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["dominates"] is True
        assert obj["min_gap"] == "0/1"

    def test_self_comparison_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "dominate", "--n", "6", "--k", "3",
            "--candidate", "2,2,2", "--target", "2,2,2",
        )
        assert code == 2


    def test_wrong_kernel_answer_exits_1(self, capsys, monkeypatch):
        dp = kernels.best_split_numpy

        def off_by_one(tables, budget):
            value, bids = dp(tables, budget)
            return value + 1, bids

        monkeypatch.setattr(kernels, "best_split_numpy", off_by_one)
        code, out, err = run(
            capsys, "dominate", "--n", "6", "--k", "3", "--candidate", "2,2,2", "--target", "4,1,1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("internal error: dominance witness")


class TestScanAlpha:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "scan-alpha", "--n", "8", "--k", "4", "--alphas", "0,1,2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha,")
        assert len(lines) == 1 + 3 * 4  # header + 3 tie values x 4 profiles


class TestPsne:
    def test_saturated_tie_value(self, capsys):
        code, out, _ = run(
            capsys, "psne", "--n", "8", "--k", "4", "--alpha", "2", "--s", "8,0,0,0"
        )
        assert json.loads(out)["is_psne"] is True

    def test_zero_tie_value(self, capsys):
        code, out, _ = run(
            capsys, "psne", "--n", "8", "--k", "4", "--alpha", "0", "--s", "2,2,2,2"
        )
        assert json.loads(out)["is_psne"] is False

    def test_alpha_outside_range_needs_override(self, capsys):
        args = ["psne", "--n", "8", "--k", "4", "--alpha", "5/2", "--s", "2,2,2,2"]
        code, _, _ = run(capsys, *args)
        assert code == 2
        code, out, _ = run(capsys, *args, "--alpha-override")
        assert code == 0
        assert json.loads(out)["is_psne"] is True


class TestEnumerate:
    def test_allocations(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--k", "2")
        assert out.splitlines() == ["0,2", "1,1", "2,0"]

    def test_cap_exit(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "120", "--k", "6")
        assert code == 2


class TestFp:
    def test_rank_report_csv(self, capsys):
        code, out, err = run(
            capsys,
            "fp", "--n", "12", "--k", "4", "--rounds", "500", "--report-top", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,partition,probability,first_round"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert len(cells[1].split("-")) == 4
        assert "support=" in err

    def test_byte_identical_output(self, capsys):
        argv = ["fp", "--n", "12", "--k", "4", "--rounds", "300", "--seed", "7",
                "--tie-break", "random"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_trace_and_checkpoint_files(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        ckpt = tmp_path / "run.fp"
        code, _, _ = run(
            capsys,
            "fp", "--n", "12", "--k", "4", "--rounds", "400",
            "--trace", str(trace), "--trace-every", "100",
            "--checkpoint", str(ckpt), "--checkpoint-every", "200",
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# blotto-lab")
        assert lines[1] == "round,tv_to_uniform,br_gap"
        assert len(lines) >= 5
        code, out, _ = run(
            capsys,
            "fp", "--n", "12", "--k", "4", "--rounds", "600", "--resume", str(ckpt),
        )
        assert code == 0

    def test_resume_equals_straight_run(self, capsys, tmp_path):
        ckpt = tmp_path / "mid.fp"
        run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "200",
            "--checkpoint", str(ckpt))
        _, resumed, _ = run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "400",
                            "--resume", str(ckpt))
        _, straight, _ = run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "400")
        assert resumed == straight

    def test_resume_with_a_different_seed_exits_2(self, capsys, tmp_path):
        ckpt = tmp_path / "mid.fp"
        head = ("fp", "--n", "12", "--k", "4")
        run(capsys, *head, "--rounds", "50", "--seed", "3", "--tie-break", "random",
            "--checkpoint", str(ckpt))
        code, _, err = run(capsys, *head, "--rounds", "80", "--resume", str(ckpt),
                           "--seed", "4")
        assert code == 2
        assert err == f"error: {ckpt} was run with seed 3, not 4\n"
        code, _, _ = run(capsys, *head, "--rounds", "80", "--resume", str(ckpt),
                         "--seed", "3", "--tie-break", "random")
        assert code == 0

    @pytest.mark.parametrize(
        "path_flag, every_flag",
        [("--checkpoint", "--checkpoint-every"), ("--trace", "--trace-every")],
    )
    def test_zero_interval_exits_2(self, capsys, tmp_path, path_flag, every_flag):
        code, _, err = run(
            capsys, "fp", "--n", "12", "--k", "4", "--rounds", "10",
            path_flag, str(tmp_path / "out"), every_flag, "0",
        )
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--trace-every", "10"), "--trace-every needs --trace"),
            (("--trace-every", "0"), "--trace-every needs --trace"),
            (("--checkpoint-every", "10"), "--checkpoint-every needs --checkpoint"),
            (("--report-top", "-1"), "--report-top must be >= 0, got -1"),
        ],
    )
    def test_ignored_flags_exit_2(self, capsys, flags, message):
        # nothing runs and nothing is written: the error comes before the FP run
        code, out, err = run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "10", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_trace_every_defaults_to_1000(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "fp", "--n", "12", "--k", "4", "--rounds", "2500", "--trace", str(trace)
        )
        assert code == 0
        rounds = [line.split(",")[0] for line in trace.read_text().splitlines()[2:]]
        assert rounds == ["1", "1000", "2000", "2500"]

    @pytest.mark.parametrize(
        "flag, name",
        [("--resume", "nope.fp"), ("--checkpoint", "nodir/c.fp"), ("--output", "nodir/x.csv")],
    )
    def test_file_errors_exit_2(self, capsys, tmp_path, flag, name):
        code, _, err = run(
            capsys, "fp", "--n", "12", "--k", "4", "--rounds", "10", flag, str(tmp_path / name)
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "damage, extra",
        [(lambda blob: blob[:-5], ()), (lambda blob: blob, ("--alpha", "1/3"))],
        ids=["truncated-body", "other-game"],
    )
    def test_bad_resume_exits_2(self, capsys, tmp_path, damage, extra):
        ckpt = tmp_path / "run.fp"
        run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "50", "--checkpoint", str(ckpt))
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        code, _, err = run(
            capsys, "fp", "--n", "12", "--k", "4", "--rounds", "100", "--resume", str(ckpt), *extra
        )
        assert code == 2
        assert err.startswith(f"error: {ckpt}")

    @pytest.mark.parametrize("tie_break", ["lex", "random"])
    def test_negative_seed_exits_2(self, capsys, tie_break):
        code, out, err = run(capsys, "fp", "--n", "12", "--k", "4", "--rounds", "10",
                             "--tie-break", tie_break, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_a_seed_past_64_bits_runs(self, capsys):
        argv = ["fp", "--n", "12", "--k", "4", "--rounds", "30", "--tie-break", "random"]
        code, out, _ = run(capsys, *argv, "--seed", str(10**23))
        assert code == 0
        assert out != run(capsys, *argv, "--seed", "0")[1]


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "6", "--k", "3", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("blotto_lab.cli.count_unordered", ["count", "--n", "6", "--k", "3"]),
            ("blotto_lab.analysis.verify_equilibrium",
             ["verify", "--n", "6", "--k", "2", "--family", "canonical"]),
            ("blotto_lab.analysis.psne_check", ["psne", "--n", "6", "--k", "2", "--s", "3,3"]),
            ("blotto_lab.learning.fp_run", ["fp", "--n", "6", "--k", "2", "--rounds", "2"]),
        ],
        ids=["count", "verify", "psne", "fp"],
    )
    def test_out_of_memory_exits_2(self, capsys, monkeypatch, entry, argv):
        # the entry point raises as a table too large for memory would, with
        # nothing large allocated
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(entry, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: not enough memory for this game (blotto {argv[0]})\n"


# Verdict commands whose bytes (exit code and stdout) are pinned, by group:
# every family pair the CLI builds cheaply ("solver" takes about 0.5 s per
# 120/6 query) at 120/6 for three tie values and at 600/6, the three
# `classify` verdicts, `dominate` at both sizes and `psne`.
CHEAP_FAMILIES = [f for f in FAMILIES if f != "solver"]
VERDICT_CLASSIFY = ("40,40,40,0,0,0", "30,30,20,20,10,10", "120,0,0,0,0,0", "60,60,0,0,0,0",
                    "50,30,20,10,5,5", "41,40,39,0,0,0")
VERDICT_PSNE = ("20,20,20,20,20,20", "40,40,40,0,0,0", "119,1,0,0,0,0")


# A tie value whose 21-digit denominator takes every table past the int64
# guard, so these verdicts run the budget DP on Python ints: the strategies
# classified, checked as pure equilibria and compared for dominance, by game.
BIG_ALPHA = "1/100000000000000000001"
BIG_VERDICTS = {
    (12, 4): (
        ("4,4,4,0", "3,3,3,3", "12,0,0,0", "6,6,0,0", "5,4,2,1", "7,3,1,1"),
        ("3,3,3,3", "4,4,4,0", "11,1,0,0"),
        (("5,4,2,1", "6,3,2,1"), ("4,4,4,0", "12,0,0,0")),
    ),
    (120, 6): (
        VERDICT_CLASSIFY,
        VERDICT_PSNE,
        (("30,30,20,20,10,10", "60,40,10,5,3,2"), ("40,40,40,0,0,0", "120,0,0,0,0,0")),
    ),
}


def verdict_table():
    table = {}
    for n, alphas in ((120, ("0", "1/3", "1")), (600, ("1/3",))):
        witness = ",".join(map(str, [n // 3] * 3 + [0] * 3))
        for alpha in alphas:
            head = ("--n", str(n), "--k", "6", "--alpha", alpha)
            table[f"verify {n}/6 {alpha}"] = [
                ("verify", *head, "--family", a, "--family-b", b)
                + (("--s", witness) if "witness" in (a, b) else ())
                for a in CHEAP_FAMILIES
                for b in CHEAP_FAMILIES
            ]
    for alpha in ("0", "1/3", "1"):
        head = ("--n", "120", "--k", "6", "--alpha", alpha)
        table[f"classify 120/6 {alpha}"] = [("classify", *head, "--s", s) for s in VERDICT_CLASSIFY]
        table[f"psne 120/6 {alpha}"] = [("psne", *head, "--s", s) for s in VERDICT_PSNE]
    table["dominate"] = [
        ("dominate", "--n", "120", "--k", "6", "--alpha", "1/3",
         "--candidate", "30,30,20,20,10,10", "--target", "60,40,10,5,3,2"),
        ("dominate", "--n", "600", "--k", "6", "--alpha", "1/3",
         "--candidate", "100,50,150,120,80,100", "--target", "90,200,10,100,140,60"),
    ]
    head = ("--n", "600", "--k", "6", "--alpha", "1/3")
    table["600/6 classify psne"] = [
        ("classify", *head, "--s", "200,200,200,0,0,0"),
        ("classify", *head, "--s", "250,150,100,50,30,20"),
        ("psne", *head, "--s", "87,197,62,4,249,1"),
    ]
    for (n, k), (classified, pure, dominance) in BIG_VERDICTS.items():
        head = ("--n", str(n), "--k", str(k), "--alpha", BIG_ALPHA)
        witness = ",".join(map(str, [n // 3] * 3 + [0] * (k - 3)))
        table[f"verify {n}/{k} big"] = [
            ("verify", *head, "--family", a, "--family-b", b)
            + (("--s", witness) if "witness" in (a, b) else ())
            for a in CHEAP_FAMILIES
            for b in CHEAP_FAMILIES
        ]
        table[f"classify {n}/{k} big"] = [("classify", *head, "--s", s) for s in classified]
        table[f"psne {n}/{k} big"] = [("psne", *head, "--s", s) for s in pure]
        table[f"dominate {n}/{k} big"] = [
            ("dominate", *head, "--candidate", c, "--target", t) for c, t in dominance
        ]
    return table


def verdict_digest(capsys, commands):
    digest = hashlib.sha256()
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


# Recorded with an earlier budget DP (an int64 block fill over rows of budgets,
# and the pure-Python DP for the "big" groups): a rewrite of the DP must leave
# every verdict byte as it was.
VERDICT_DIGESTS = {
    "classify 12/4 big": "2a0c599e61d974594cc543e702f45e9b3a029e95df64359f0973f5260cc91a45",
    "classify 120/6 big": "74277c0860481bba9cf7dc5c019d28c5ebd43953ff8a2d96c7f2730bbecccfec",
    "dominate 12/4 big": "de5f76372c3cf4d0b290bc76297e9350f5a62e0575c882272444f1cc7ec106eb",
    "dominate 120/6 big": "22955bb5d0b343262e80e3163bcfdf2796ee01d811544eae6930d92d8e821aa7",
    "psne 12/4 big": "c101029dba5fb702cfa7a77896a90c18d370cda1b90cd7b84a5510c26e9aeafb",
    "psne 120/6 big": "b47d6be962b09ec307884207702718ca66d6b0f46d3f18a0f0b77b9e742138a1",
    "verify 12/4 big": "12596f642b5bfa658cf752a4bc691490f3b678e0731fe2e8097773d417c1ae67",
    "verify 120/6 big": "5c35ce5d0ce875c86dbae67bf348bc894947b8d000062342844f584d83566e4b",
    "600/6 classify psne": "8341b87e9de42043b811ff714fcb904587aad740c080193ce9aa9bd6f39fca89",
    "classify 120/6 0": "cfc674324d55888e3ea535b736018808b0fd1c9b1b698473fe3befab83031f90",
    "classify 120/6 1": "28fce763221350d27acedebcb8c15ee66b326ba907477bdf425f444d6fdd128a",
    "classify 120/6 1/3": "28cb602f5167901f966706ffc86faacd1594d5131851ae54d3a17062b066e79b",
    "dominate": "63cf979777e92eabefb1514f4f880cd3926ce5693b5449f03670094cd066d409",
    "psne 120/6 0": "16c69f1aad93f1332809a17e51055a20b9ce69e3b431e2489fb3146058d61cd3",
    "psne 120/6 1": "59bb4fe5a6cd930206bd510fba201faa8f53d80fbb44981cc53b349dfb876bcb",
    "psne 120/6 1/3": "3ac528d3c5370bb5ff0b0051fff8bb5f781167451dcc0c36ba2fa83c95be996c",
    "verify 120/6 0": "2e66fee67e42ead4bd8b83ebae8a1b2649bcf789d832a5b89d9a5204709aa0ab",
    "verify 120/6 1": "e15bd6448f943a09a9ae515efcfb776d2c29f6557b4df9c6cc27d812e33a8bab",
    "verify 120/6 1/3": "f18e9bf3fabaae5dfea66ddc2a04ce5bd8cccddb02cff49d8f4f5513c17b0c93",
    "verify 600/6 1/3": "c03fce3c156c2fb6a002b99e4dd00f0dc4e5fc51a45af9f682fe17c3a3918916",
}


class TestVerdictBytes:
    def test_the_table_covers_every_verdict(self, capsys):
        verdicts = {json.loads(run(capsys, *argv)[1])["verdict"]
                    for group, commands in verdict_table().items() if group.startswith("classify")
                    for argv in commands}
        assert verdicts == {"good", "never_good", "unknown"}

    @pytest.mark.parametrize("group", sorted(verdict_table()))
    def test_verdict_bytes(self, capsys, group):
        assert verdict_digest(capsys, verdict_table()[group]) == VERDICT_DIGESTS[group]


# fp runs on Python ints, past the int64 guard of the scaled beliefs (at the
# 21-digit tie value, and outside [0, 2] where the rows fall) and past the
# sampler's bound on its counts of optimal completions (60/30, random).
BIG_FP_RUNS = {
    "12/4 big lex": ("--n", "12", "--k", "4", "--alpha", BIG_ALPHA, "--rounds", "300"),
    "12/4 big random": ("--n", "12", "--k", "4", "--alpha", BIG_ALPHA, "--rounds", "300",
                        "--tie-break", "random", "--seed", "7"),
    "12/4 big override": ("--n", "12", "--k", "4", "--alpha=-" + BIG_ALPHA, "--alpha-override",
                          "--rounds", "200", "--mode", "self-play"),
    "60/30 random": ("--n", "60", "--k", "30", "--alpha", "1/3", "--rounds", "20",
                     "--tie-break", "random", "--seed", "3"),
}


def fp_digest(capsys, tmp_path, argv):
    """SHA-256 of an fp run's exit code, rank CSV, stderr, trace rows and checkpoint."""
    ckpt, trace = tmp_path / "run.fp", tmp_path / "trace.csv"
    code, out, err = run(capsys, "fp", *argv, "--checkpoint", str(ckpt),
                         "--trace", str(trace), "--trace-every", "5")
    digest = hashlib.sha256(f"{code}\n{out}{err}".encode())
    digest.update(trace.read_bytes().split(b"\n", 1)[1])  # the header line names the paths
    digest.update(ckpt.read_bytes())
    return digest.hexdigest()


# Recorded with the pure-Python budget DP these runs took before the numpy
# kernels ran on Python ints: the engine may change, the bytes may not.
BIG_FP_DIGESTS = {
    "12/4 big lex": "ca3db709fedb00c48f3c520e9abfda755f4ffd05b8c303f21da63ac1900f0c82",
    "12/4 big override": "5af7ea2b28499297be8ac46ca01fa48d1949fc73d5eee389f57d13e6b1423719",
    "12/4 big random": "30edd660080f2fcaa3d005971e1b4172b6b5655bb68146e517b807eed5e16be6",
    "60/30 random": "e1e33ef9774ed2c2c83facebf86083d7c432feebdde35c45039033494e941fb1",
}


@pytest.mark.parametrize("name", sorted(BIG_FP_RUNS))
def test_big_integer_fp_bytes(capsys, tmp_path, name):
    assert fp_digest(capsys, tmp_path, BIG_FP_RUNS[name]) == BIG_FP_DIGESTS[name]


# Random-tie-break runs on the numpy sampler, recorded before it drew from a
# unique optimal partition in closed form: it must make the same draws, so
# every byte stays.  A name ending in "resumed" cuts the run at half its
# rounds and resumes it from that checkpoint.
RANDOM_FP_RUNS = {
    f"120/6 {alpha} {mode}{cut}": (
        "--n", "120", "--k", "6", "--alpha", alpha, "--mode", mode, "--rounds", "200",
        "--tie-break", "random", "--seed", "17",
    )
    for alpha in ("0", "1/3", "1")
    for mode in ("two-sided", "self-play")
    for cut in ("", " resumed")
}
RANDOM_FP_RUNS["600/6 1/3 two-sided"] = (
    "--n", "600", "--k", "6", "--alpha", "1/3", "--rounds", "50",
    "--tie-break", "random", "--seed", "4",
)


def random_fp_digest(capsys, tmp_path, name):
    argv = list(RANDOM_FP_RUNS[name])
    if name.endswith("resumed"):
        mid = tmp_path / "mid.fp"
        at = argv.index("--rounds") + 1
        cut = argv[:at] + [str(int(argv[at]) // 2)] + argv[at + 1 :]
        code, _, _ = run(capsys, "fp", *cut, "--checkpoint", str(mid))
        assert code == 0
        argv += ["--resume", str(mid)]
    return fp_digest(capsys, tmp_path, argv)


RANDOM_FP_DIGESTS = {
    "120/6 0 self-play": "fa4169d6384247a8a9da16c1fd21d7208afbb14627b2248ecdde9cab4ecddf31",
    "120/6 0 self-play resumed": "59afa6760934bd1b029273aad4cfd53bc42c8ab2f9402e43edd6d87cf7559c5c",
    "120/6 0 two-sided": "0ef3895afaf71954e8c097da5e1db2a17a47ff60c37e625d8602e2273b5a19d3",
    "120/6 0 two-sided resumed": "396c425f713f9a630570527224035c403f6728def3a813100cec2130a1fba6cd",
    "120/6 1 self-play": "4fc03424a7dcda8970f73aae655886ba922dc2d223b166cc07bdf520fc946586",
    "120/6 1 self-play resumed": "0eb15c85dda09d922b26af4ca182ac64f74424606c1264591959a1df0b6aa584",
    "120/6 1 two-sided": "b5d8210da1e903750b8098600cd6338ce9b7d6b5ec7a02ba204d1f56fe9a38d6",
    "120/6 1 two-sided resumed": "69d318b4d872d0e964bc007cd1f72c33ae3fd1eafd3ce69e6cbfffaa706a781e",
    "120/6 1/3 self-play": "146c22613700f4e342aaa8a4ec01c9cce4f11921079af0fed0e5102588163558",
    "120/6 1/3 self-play resumed": "8c386017670be4a37d2e21f0e46d4c0dc60d1ce679ca1b0bc9efdc4a17909e0e",
    "120/6 1/3 two-sided": "f9eefd7c00afe6d1f7a3d6c4a5acac6b4568506433a67aeb715fbb28ddd131d1",
    "120/6 1/3 two-sided resumed": "377ae9b24c264808212879bde32e8be5deb12fbd670b860c6b0de9cc21c0feaf",
    "600/6 1/3 two-sided": "34ac9a8404403d792a002ed590cc5bc89dc7a00377f9e5861c4c3a3b024af0fc",
}


@pytest.mark.parametrize("name", sorted(RANDOM_FP_RUNS))
def test_random_fp_bytes(capsys, tmp_path, name):
    assert random_fp_digest(capsys, tmp_path, name) == RANDOM_FP_DIGESTS[name]
