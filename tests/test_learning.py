"""Fictitious play: protocol, determinism, checkpoints, diagnostics."""

import hashlib
import io
import json
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blotto_lab import (
    GameSpec,
    PreconditionError,
    balanced_partition,
    enumerate_partitions,
    fp_run,
    load_checkpoint,
    lotto_payoff,
    rank_report,
    save_checkpoint,
)
from blotto_lab import kernels, learning
from blotto_lab.core import value_row
from conftest import examples
from oracles import oracle_kernels

SMALL = GameSpec(6, 3, Fraction(0))
DESK = GameSpec(12, 4, Fraction(0))


def kernel_spy(picked, calls):
    """A ``get_kernels`` that records each name asked for, and each kernel call as ``(kind, rows, index, dtype)``.

    Each call hands one value row: a plain row (``rows`` 1, ``index`` 0) or
    row ``index`` of a stack of ``rows`` (:class:`kernels.FPStack`).
    """

    def get_kernels(name):
        picked.append(name)
        ks = kernels.get_kernels(name)

        def spied(kind, kernel):
            def call(values, *args):
                if isinstance(values, kernels.FPRow):
                    rows, index = len(values.stack.values), values.index
                else:
                    rows, index = 1, 0
                row = np.asarray(values)
                assert row.ndim == 1
                calls.append((kind, rows, index, row.dtype))
                return kernel(values, *args)

            return call

        return kernels.KernelSet(name, spied("lex", ks.lex), spied("sampled", ks.sampled))

    return get_kernels


def fill_spy(monkeypatch):
    """The height of each stack whose FP stages fill (``kernels._fp_stages``), in order."""
    heights = []
    fill = kernels._fp_stages

    def spy(v, *args):
        heights.append(len(v))
        return fill(v, *args)

    monkeypatch.setattr(kernels, "_fp_stages", spy)
    return heights


def stretch_calls(rounds, trace_every, reply, dtype_of):
    """The kernel calls of a two-sided run and the stacks they fill.

    Per reply round, A's and B's reply as rows 0 and 1 of one stack, which
    fills once; per trace row one plain row, filled alone.  ``dtype_of(r)``
    is the type of a row over ``r`` rounds; the reply of round ``r`` reads
    ``r - 1`` rounds and a trace row after it ``r``.  Returns ``(calls,
    heights)`` as :func:`kernel_spy` and :func:`fill_spy` record them.
    """
    calls, heights = [], []
    for r in range(1, rounds + 1):
        if r > 1:
            calls += [(reply, 2, i, dtype_of(r - 1)) for i in (0, 1)]
            heights.append(2)
        if trace_every is not None and (r == 1 or r % trace_every == 0 or r == rounds):
            calls.append(("lex", 1, 0, dtype_of(r)))
            heights.append(1)
    return calls, heights


def state_fingerprint(state):
    return (
        state.rounds_played,
        tuple(sorted(state.counts_a.items())),
        tuple(sorted(state.counts_b.items())),
        tuple(state.hist_a.tolist()),
        tuple(state.hist_b.tolist()),
        tuple(state.discovery_a.items()),
    )


class TestProtocol:
    def test_round_one_plays_init(self):
        state = fp_run(SMALL, 1)
        assert state.counts_a == {(2, 2, 2): 1}
        assert state.hist_a.tolist() == [0, 0, 3, 0, 0, 0, 0]

    def test_first_reply_to_even_point_mass(self):
        # best reply to a point mass at the even split abandons one field
        state = fp_run(SMALL, 2)
        assert state.counts_a == {(2, 2, 2): 1, (3, 3, 0): 1}

    def test_balanced_partition_fallback(self):
        assert balanced_partition(GameSpec(7, 3)) == (3, 2, 2)
        state = fp_run(GameSpec(7, 3), 1)
        assert state.counts_a == {(3, 2, 2): 1}

    def test_all_plays_are_partitions_of_the_budget(self):
        state = fp_run(DESK, 300)
        for partition in state.counts_a:
            assert sum(partition) == DESK.budget
            assert tuple(sorted(partition, reverse=True)) == partition

    def test_init_relabeling_is_irrelevant(self):
        a = fp_run(SMALL, 50, init=(0, 3, 3))
        b = fp_run(SMALL, 50, init=(3, 3, 0))
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_rounds_must_be_positive(self):
        with pytest.raises(PreconditionError):
            fp_run(SMALL, 0)


class TestInvariants:
    def test_histogram_totals_and_recomputability(self):
        state = fp_run(DESK, 123)
        k = DESK.battlefields
        for counts, hist in ((state.counts_a, state.hist_a), (state.counts_b, state.hist_b)):
            assert hist.sum() == state.rounds_played * k
            rebuilt = np.zeros_like(hist)
            for partition, count in counts.items():
                for b in partition:
                    rebuilt[b] += count
            assert (rebuilt == hist).all()

    def test_belief_update_is_online(self):
        # consecutive rounds differ by exactly the one partition just played
        prev = fp_run(SMALL, 40)
        cur = fp_run(SMALL, 41)
        diff = {
            p: cur.counts_a.get(p, 0) - prev.counts_a.get(p, 0)
            for p in set(cur.counts_a) | set(prev.counts_a)
        }
        changed = {p: d for p, d in diff.items() if d}
        assert sum(changed.values()) == 1
        assert all(d == 1 for d in changed.values())

    def test_br_matches_brute_force_over_partitions(self):
        state = fp_run(SMALL, 60)
        k = SMALL.battlefields
        r = state.rounds_played
        belief = {p: Fraction(c, r) for p, c in state.counts_b.items()}

        def expected(partition):
            return sum(
                (w * lotto_payoff(partition, q, SMALL) for q, w in belief.items()),
                start=Fraction(0),
            )

        brute = max(expected(p) for p in enumerate_partitions(SMALL))
        cont = fp_run(SMALL, 61)
        played = [p for p in cont.counts_a if cont.counts_a[p] > state.counts_a.get(p, 0)]
        assert len(played) == 1
        assert expected(played[0]) == brute


class TestDeterminismAndModes:
    def test_identical_args_identical_state(self):
        a = fp_run(DESK, 200, seed=5)
        b = fp_run(DESK, 200, seed=5)
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_backends_agree(self, monkeypatch):
        fast = fp_run(DESK, 150)
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        reference = fp_run(DESK, 150)
        assert state_fingerprint(fast) == state_fingerprint(reference)

    def test_self_play_shares_history(self):
        state = fp_run(SMALL, 80, mode="self-play")
        assert state.counts_a is state.counts_b
        assert state.hist_a is state.hist_b

    def test_deterministic_two_sided_mirrors_self_play(self):
        # with lexicographic tie-breaking both players make the same replies
        two = fp_run(SMALL, 80, mode="two-sided")
        solo = fp_run(SMALL, 80, mode="self-play")
        assert sorted(two.counts_a.items()) == sorted(solo.counts_a.items())

    def test_random_tie_break_reproducible_and_seed_sensitive(self):
        a = fp_run(DESK, 120, seed=1, tie_break="random")
        b = fp_run(DESK, 120, seed=1, tie_break="random")
        c = fp_run(DESK, 120, seed=2, tie_break="random")
        assert state_fingerprint(a) == state_fingerprint(b)
        assert state_fingerprint(a) != state_fingerprint(c)

    def test_bigint_fallback_runs(self, monkeypatch):
        tiny_tie = GameSpec(4, 2, Fraction(1, 10**15))
        state = fp_run(tiny_tie, 120)
        assert state.hist_a.sum() == 120 * 2
        # forced onto Python ints, a run plays and traces as it does in int64
        # and as it does on the oracle kernels
        for tie_break in learning.TIE_BREAKS:
            run = dict(seed=5, tie_break=tie_break, trace_every=7)
            fast = fp_run(DESK, 90, **run)
            picked, calls = [], []
            with monkeypatch.context() as m:
                m.setattr(learning, "_INT64_SAFE", 0)
                m.setattr(learning, "get_kernels", kernel_spy(picked, calls))
                heights = fill_spy(m)
                exact = fp_run(DESK, 90, **run)
                m.setattr(learning, "get_kernels", lambda name: oracle_kernels)
                reference = fp_run(DESK, 90, **run)
            assert picked == ["python"]
            # per two-sided round one call per row of one stack, which fills
            # once; one plain row per trace row
            reply = "lex" if tie_break == "lex" else "sampled"
            assert (calls, heights) == stretch_calls(90, 7, reply, lambda r: np.dtype(object))
            assert state_fingerprint(exact) == state_fingerprint(fast) == state_fingerprint(reference)
            assert exact.trace == fast.trace == reference.trace and len(exact.trace) == 14

    # SHA-256 of the checkpoints, recorded when a run took Python ints from
    # round 1 whenever its target passed the guard: the type may change per
    # round, the bytes may not.
    @pytest.mark.parametrize(
        "tie_break, digest",
        [("lex", "dec6d57b5fbed6f016629b5ffb5dbccda32f97605b5587e710ff9f417b466d2a"),
         ("random", "ccfdde0f26ff34e8abd90e840d9ed35bb2781eb2dc97dfc786dc068a3dc0287c")],
    )
    def test_rounds_below_the_guard_run_in_int64(self, tmp_path, tie_break, digest, monkeypatch):
        # at alpha 0.123456789012 beliefs over 30,164 rounds pass the int64
        # guard, so only a trace row of the last round would need Python
        # ints: the first 100 rounds of a run to 30,164 take the int64 form
        class Stop(Exception):
            pass

        def stop_at_100(r, target):
            if r == 100:
                raise Stop

        picked, calls = [], []
        monkeypatch.setattr(learning, "get_kernels", kernel_spy(picked, calls))
        heights = fill_spy(monkeypatch)
        path = tmp_path / "run.fp"
        with pytest.raises(Stop):
            fp_run(GameSpec(120, 6, Fraction("0.123456789012")), 30164, seed=3,
                   tie_break=tie_break, checkpoint_path=str(path), checkpoint_every=100,
                   progress=stop_at_100)
        assert picked == ["numpy"]
        reply = "lex" if tie_break == "lex" else "sampled"
        assert (calls, heights) == stretch_calls(100, None, reply, lambda r: np.dtype(np.int64))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "tie_break, digest",
        [("lex", "f781245419e25470c23dd035cf26a3fffc6eab42058a85090ba3dc6fb9c1d367"),
         ("random", "d6921ec3a0473f6726d2dc9ff22d9e025b805f33c6b77a438c6296a1e23add46")],
    )
    def test_a_run_crosses_the_guard_between_rounds(self, tmp_path, tie_break, digest,
                                                    monkeypatch):
        # at 12/4 and alpha 1e-15 beliefs over 19 rounds pass the guard: the
        # replies of rounds 2..19 and the trace rows up to round 18 run in
        # int64, the rest on Python ints, with the bytes of an all-Python run
        picked, calls = [], []
        monkeypatch.setattr(learning, "get_kernels", kernel_spy(picked, calls))
        heights = fill_spy(monkeypatch)
        spec = GameSpec(12, 4, Fraction(1, 10**15))
        run = dict(seed=3, tie_break=tie_break, trace_every=1)
        path = tmp_path / "run.fp"
        state = fp_run(spec, 40, checkpoint_path=str(path), **run)
        assert picked == ["numpy", "python"]
        reply = "lex" if tie_break == "lex" else "sampled"
        assert (calls, heights) == stretch_calls(
            40, 1, reply, lambda r: np.dtype(np.int64 if r <= 18 else object))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        reference = fp_run(spec, 40, **run)
        assert state_fingerprint(state) == state_fingerprint(reference)
        assert state.trace == reference.trace

    @pytest.mark.parametrize("tie_break", learning.TIE_BREAKS)
    def test_a_run_leaves_int32_at_the_computed_round(self, tmp_path, tie_break, monkeypatch):
        # at 12/4 and alpha 1e-6, (p, q2) = (1, 2 * 10**6): beliefs over r
        # rounds fit int32's guard while 16 * (q2 + 1) * r < 2**28, so the
        # replies of rounds 2..9 and the trace rows up to round 8 run on int32
        # rows, the rest on int64, all through get_kernels("numpy"); a run
        # cut on either side of the switch and resumed keeps its bytes
        spec = GameSpec(12, 4, Fraction(1, 10**6))
        p, q2 = spec.tie_scale
        last_int32 = max(r for r in range(1, 100) if 16 * (q2 + abs(p)) * r < 1 << 28)
        assert last_int32 == 8
        picked, calls = [], []
        monkeypatch.setattr(learning, "get_kernels", kernel_spy(picked, calls))
        heights = fill_spy(monkeypatch)
        run = dict(seed=3, tie_break=tie_break, trace_every=1)
        whole = tmp_path / "whole.fp"
        state = fp_run(spec, 30, checkpoint_path=str(whole), **run)
        assert picked == ["numpy"]
        # round r: both replies over r - 1 rounds (r >= 2) from one stack,
        # then a trace row over r
        reply = "lex" if tie_break == "lex" else "sampled"
        assert (calls, heights) == stretch_calls(
            30, 1, reply, lambda r: np.dtype(np.int32 if r <= last_int32 else np.int64))
        for cut in (last_int32, last_int32 + 1, last_int32 + 2):
            path = tmp_path / f"cut{cut}.fp"
            fp_run(spec, cut, checkpoint_path=str(path), **run)
            resumed = fp_run(spec, 30, resume=str(path), checkpoint_path=str(path), trace_every=1)
            assert path.read_bytes() == whole.read_bytes()
            assert resumed.trace == state.trace
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        reference = fp_run(spec, 30, **run)
        assert state_fingerprint(state) == state_fingerprint(reference)
        assert state.trace == reference.trace

    # 12/3 at alpha 1/(10**15 + 7): k * k * (q2 + p) = 18,000,000,000,000,135,
    # so rows over 0 rounds fit int32 (round 1 plays init: no kernel call
    # runs in int32), over 1..32 rounds int64, and from 33 on Python ints.
    # At alpha 1e-6 (18,000,009) rows over 1..14 rounds fit int32; with the
    # int64 guard lowered to 25 rounds' worth, every type takes kernel calls.
    @pytest.mark.parametrize(
        "alpha, int64_safe, int64_from, object_from",
        [(Fraction(1, 10**15 + 7), None, 1, 33), (Fraction(1, 10**6), 25 * 18_000_009, 15, 25)],
        ids=["1/(1e15+7)", "1e-6-lowered"],
    )
    def test_a_two_sided_random_run_crosses_every_type(
        self, tmp_path, alpha, int64_safe, int64_from, object_from, monkeypatch
    ):
        # one stack of both sampler calls per round in the type of its
        # stretch, with the checkpoint bytes and trace of the same run on the
        # oracles
        spec = GameSpec(12, 3, alpha)
        p, q2 = spec.tie_scale
        assert 9 * (q2 + p) in (18_000_000_000_000_135, 18_000_009)
        if int64_safe is not None:
            monkeypatch.setattr(learning, "_INT64_SAFE", int64_safe)
        picked, calls = [], []
        monkeypatch.setattr(learning, "get_kernels", kernel_spy(picked, calls))
        heights = fill_spy(monkeypatch)
        run = dict(seed=7, tie_break="random", trace_every=1)
        fast, slow = tmp_path / "fast.fp", tmp_path / "oracle.fp"
        state = fp_run(spec, 40, checkpoint_path=str(fast), **run)
        assert picked == ["numpy", "python"]

        def dtype_of(r):
            return np.dtype(np.int32 if r < int64_from else np.int64 if r < object_from else object)

        assert (calls, heights) == stretch_calls(40, 1, "sampled", dtype_of)
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        reference = fp_run(spec, 40, checkpoint_path=str(slow), **run)
        assert fast.read_bytes() == slow.read_bytes()
        assert state.trace == reference.trace

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_one_draw_of_both_players_uniforms_is_two_draws(self, k, seed):
        # a two-sided random round draws A's uniforms and B's in one call,
        # rng.random((2, k - 1)): the same numbers, in the same order, and
        # the same bit-generator state as A's random(k - 1) then B's, also
        # from a state restored mid-run
        for warm in (0, 5):
            one, two = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
            for rng in (one, two):
                rng.random(warm)
                rng.bit_generator.state = dict(rng.bit_generator.state)
            both = one.random((2, k - 1))
            first, second = two.random(k - 1), two.random(k - 1)
            assert both[0].tolist() == first.tolist() and both[1].tolist() == second.tolist()
            assert one.bit_generator.state == two.bit_generator.state

    @pytest.mark.parametrize("tie_break", learning.TIE_BREAKS)
    def test_self_play_hands_one_row(self, tie_break, monkeypatch):
        # one history: a self-play round asks for one reply of a plain row,
        # as each trace row does, and each fills as a stack of one
        picked, calls = [], []
        monkeypatch.setattr(learning, "get_kernels", kernel_spy(picked, calls))
        heights = fill_spy(monkeypatch)
        state = fp_run(DESK, 20, mode="self-play", seed=4, tie_break=tie_break, trace_every=5)
        reply = "lex" if tie_break == "lex" else "sampled"
        want = []
        for r in range(1, 21):
            want += [(reply, 1, 0, np.dtype(np.int32))] * (r > 1)
            want += [("lex", 1, 0, np.dtype(np.int32))] * (r == 1 or r % 5 == 0)
        assert picked == ["numpy"] and calls == want
        assert heights == [1] * len(want)
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        reference = fp_run(DESK, 20, mode="self-play", seed=4, tie_break=tie_break, trace_every=5)
        assert state_fingerprint(state) == state_fingerprint(reference)
        assert state.trace == reference.trace

    @pytest.mark.parametrize(
        "n, tie_break, kernel",
        [(38, "random", "numpy"), (39, "random", "python"), (39, "lex", "numpy")],
        ids=["random-below", "random-at", "lex-at"],
    )
    def test_sampler_bound_picks_the_kernels(self, n, tie_break, kernel, monkeypatch):
        # the numpy sampler counts up to C(N + K - 1, K - 1) completions in
        # int64: from 2**63 on (K = 30: N = 39) random runs ask for the
        # kernels on Python ints; lex runs count nothing
        picked = []
        monkeypatch.setattr(learning, "get_kernels",
                            lambda name: picked.append(name) or kernels.get_kernels(name))
        fp_run(GameSpec(n, 30), 1, tie_break=tie_break)
        assert picked == [kernel]

    def test_random_run_past_the_sampler_bound_draws_uniformly(self, monkeypatch):
        # C(89, 29) >= 2**63: int64 counts would wrap, so the run counts in
        # Python ints and draws as the oracle kernels do
        spec = GameSpec(60, 30, "1/3")
        run = dict(seed=3, tie_break="random", trace_every=4)
        state = fp_run(spec, 12, **run)
        monkeypatch.setattr(learning, "get_kernels", lambda name: oracle_kernels)
        exact = fp_run(spec, 12, **run)
        assert state_fingerprint(state) == state_fingerprint(exact)
        assert state.trace == exact.trace

    @pytest.mark.parametrize(
        "p, q2, bigint",
        [(p, q2, bigint) for p, q2 in ((0, 2), (1, 6), (-3, 2), (7, 2)) for bigint in (False, True)]
        + [(10**30 + 1, 2 * 10**31, True)],  # past int64
    )
    def test_belief_values_equal_the_below_form(self, p, q2, bigint):
        hist = np.array([3, 0, 5, 1, 0, 0, 2, 0], dtype=np.int64)
        got = learning._belief_values(hist, p, q2, np.dtype(object if bigint else np.int64))
        h = hist.astype(object) if bigint else hist
        below = np.concatenate(([0], np.cumsum(h[:-1])))
        assert got.dtype == (object if bigint else np.int64)
        assert got.tolist() == (q2 * below + p * h).tolist() == value_row(hist.tolist(), p, q2)

    @pytest.mark.parametrize("p, q2", [(0, 1), (1, 6), (-3, 2), (7, 2)])
    def test_belief_values_narrow_to_int32(self, p, q2):
        # an int32 row holds the int64 row's values, up to the int32 guard
        hist = np.array([3, 0, 5, 1, 0, 0, 2, 0], dtype=np.int64)
        got = learning._belief_values(hist, p, q2, np.dtype(np.int32))
        assert got.dtype == np.int32
        assert got.tolist() == value_row(hist.tolist(), p, q2)

    # SHA-256 of each run's final checkpoint, pinned from an earlier form of
    # the numpy sampler's stage loop: a faster sampler must make the same
    # draws, so the same trace rows and bytes.
    @pytest.mark.parametrize(
        "spec, rounds, seed, digest",
        [
            (GameSpec(120, 6, Fraction(1, 3)), 500, 7,
             "8e5205b3b0def8bbaad2e53541e49052241d47efcd3ea2e7e7d2f3451c8c5a0f"),
            (GameSpec(60, 4, Fraction(1)), 1000, 11,
             "883bddb3b45325f28b0de7539e6f1752f7835e8a944801ca7425e6e8dacbe468"),
            # rows that decrease: the full-width stages
            (GameSpec(24, 3, Fraction(3), allow_any_tie_value=True), 1000, 5,
             "f9b4767af57b3061e8e3e5e6612c46ddf144fa3a2d89479713f11c9280871e3a"),
            # tie-heavy runs, pinned from the sampler that drew every tied
            # call from the counts: 3-4% of the 120/6 calls tie at alpha 0
            # and 1, and 600/6 meets tie sets of up to 801,512 partitions
            (GameSpec(120, 6, Fraction(0)), 1000, 7,
             "7b490f4756805540548e937a07f0d6fc945944171520ebdc8c0d58618820f1d9"),
            (GameSpec(120, 6, Fraction(1)), 1000, 11,
             "3883ed5728b1c2c43db5947ca045c2b27cb888d8ad14ef45611c7c440fdba1dc"),
            (GameSpec(24, 6, Fraction(1, 3)), 1000, 5,
             "6e7f9ce48e8e8f85decf37a54eb67213069c79d31d1328652ef6e6ad146da441"),
            (GameSpec(600, 6, Fraction(1, 3)), 40, 0,
             "095710fbb0712ba4b484311928265fbbe93ef7fbdf384fd404d2fed35132589e"),
        ],
        ids=["120/6-1/3", "60/4-1", "24/3-3", "120/6-0", "120/6-1", "24/6-1/3", "600/6-1/3"],
    )
    def test_random_run_checkpoint_bytes(self, tmp_path, spec, rounds, seed, digest):
        path = tmp_path / "run.fp"
        fp_run(spec, rounds, seed=seed, tie_break="random", trace_every=100,
               checkpoint_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, True, "3"])
    @pytest.mark.parametrize("tie_break", learning.TIE_BREAKS)
    def test_fp_run_refuses_a_bad_seed(self, tmp_path, seed, tie_break):
        path = tmp_path / "run.fp"
        with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
            fp_run(DESK, 5, seed=seed, tie_break=tie_break, checkpoint_path=str(path))
        assert not path.exists()

    def test_resume_refuses_a_bad_seed(self, tmp_path):
        path = tmp_path / "run.fp"
        fp_run(DESK, 5, seed=3, tie_break="random", checkpoint_path=str(path))
        with pytest.raises(PreconditionError, match="seed must be a non-negative integer"):
            fp_run(DESK, 9, seed=-3, resume=str(path))

    @pytest.mark.parametrize("seed", [0, 2**64, 10**23, np.int64(7)])
    def test_any_non_negative_integer_seeds_a_run(self, tmp_path, seed):
        path = tmp_path / "run.fp"
        state = fp_run(DESK, 20, seed=seed, tie_break="random", checkpoint_path=str(path))
        assert state.seed == seed and type(state.seed) is int
        again = fp_run(DESK, 30, resume=str(path))
        assert again.seed == seed
        assert state_fingerprint(again) == state_fingerprint(
            fp_run(DESK, 30, seed=int(seed), tie_break="random"))


class TestCounts:
    @pytest.mark.parametrize("rounds", [2.5, 3.0, True, "3", Fraction(3)])
    def test_fp_run_refuses_a_non_integer_round_count(self, rounds):
        # 2.5 used to play 3 rounds, and True 1
        with pytest.raises(PreconditionError, match="rounds must be an integer"):
            fp_run(DESK, rounds)

    @pytest.mark.parametrize("name", ["trace_every", "checkpoint_every"])
    @pytest.mark.parametrize("every", [2.5, 1.0, True])
    def test_fp_run_refuses_a_non_integer_cadence(self, tmp_path, name, every):
        # trace_every=2.5 on 5 rounds used to trace rounds 1 and 5 only
        path = tmp_path / "run.fp"
        with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
            fp_run(DESK, 5, checkpoint_path=str(path), **{name: every})
        assert not path.exists()

    @pytest.mark.parametrize("name", ["rounds", "trace_every", "checkpoint_every"])
    def test_fp_run_refuses_a_count_below_one(self, tmp_path, name):
        counts = dict(rounds=5, trace_every=1, checkpoint_every=1)
        counts[name] = np.int64(0)
        with pytest.raises(PreconditionError, match=f"{name} must be >= 1, got 0"):
            fp_run(DESK, counts.pop("rounds"), checkpoint_path=str(tmp_path / "run.fp"), **counts)

    def test_numpy_integer_counts_run_as_ints(self, tmp_path):
        path = tmp_path / "run.fp"
        state = fp_run(DESK, np.int64(5), trace_every=np.int32(2),
                       checkpoint_path=str(path), checkpoint_every=np.uint8(3))
        assert state.rounds_played == 5 and type(state.rounds_played) is int
        assert [row.round_index for row in state.trace] == [1, 2, 4, 5]
        plain = fp_run(DESK, 5, trace_every=2, checkpoint_path=str(tmp_path / "b.fp"),
                       checkpoint_every=3)
        assert state_fingerprint(state) == state_fingerprint(plain)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.fp"
        state = fp_run(DESK, 90, seed=3, checkpoint_path=str(path))
        loaded = load_checkpoint(str(path))
        assert state_fingerprint(loaded) == state_fingerprint(state)
        assert loaded.spec == DESK

    def test_byte_identical_checkpoints(self, tmp_path):
        p1, p2 = tmp_path / "a.fp", tmp_path / "b.fp"
        fp_run(DESK, 150, seed=9, checkpoint_path=str(p1))
        fp_run(DESK, 150, seed=9, checkpoint_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        path = tmp_path / "mid.fp"
        fp_run(DESK, 100, checkpoint_path=str(path))
        resumed = fp_run(DESK, 250, resume=str(path))
        straight = fp_run(DESK, 250)
        assert state_fingerprint(resumed) == state_fingerprint(straight)

    def test_resume_with_random_tie_break(self, tmp_path):
        path = tmp_path / "rng.fp"
        fp_run(DESK, 100, seed=42, tie_break="random", checkpoint_path=str(path))
        resumed = fp_run(DESK, 200, resume=str(path))
        straight = fp_run(DESK, 200, seed=42, tie_break="random")
        assert state_fingerprint(resumed) == state_fingerprint(straight)

    @settings(max_examples=examples(40), deadline=None)
    @given(
        n=st.integers(2, 12),
        k=st.integers(2, 4),
        alpha=st.sampled_from(["0", "1/3", "1", "2", "5/2", "-1/2"]),
        mode=st.sampled_from(learning.MODES),
        tie_break=st.sampled_from(learning.TIE_BREAKS),
        seed=st.integers(0, 2**32),
        rounds=st.integers(2, 80),
        data=st.data(),
    )
    def test_cut_and_resumed_run_equals_uncut_run(
        self, n, k, alpha, mode, tie_break, seed, rounds, data
    ):
        # tie values outside [0, 2] give non-monotone belief rows: full-width kernels
        spec = GameSpec(n, k, Fraction(alpha), allow_any_tie_value=True)
        cut = data.draw(st.integers(1, rounds - 1), label="cut")
        run = dict(mode=mode, tie_break=tie_break, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            uncut_path, mid, resumed_path = (str(Path(tmp) / f) for f in ("u.fp", "m.fp", "r.fp"))
            uncut = fp_run(spec, rounds, **run, checkpoint_path=uncut_path)
            fp_run(spec, cut, **run, checkpoint_path=mid)
            resumed = fp_run(spec, rounds, resume=mid, checkpoint_path=resumed_path)
            assert Path(resumed_path).read_bytes() == Path(uncut_path).read_bytes()
        assert rank_report(resumed, 20) == rank_report(uncut, 20)

    @pytest.mark.parametrize(
        "given",
        [{"init": (3, 3, 3, 3)}, {"mode": "self-play"}, {"seed": 41}, {"tie_break": "lex"}],
        ids=["init", "mode", "seed", "tie_break"],
    )
    def test_resume_rejects_a_different_explicit_argument(self, tmp_path, given):
        path = tmp_path / "rng.fp"
        fp_run(DESK, 60, init=(6, 6, 0, 0), seed=42, tie_break="random",
               checkpoint_path=str(path))
        with pytest.raises(PreconditionError, match=f"was run with {next(iter(given))} "):
            fp_run(DESK, 90, resume=str(path), **given)
        same = dict(init=(0, 6, 0, 6), mode="two-sided", seed=42, tie_break="random")
        resumed = fp_run(DESK, 90, resume=str(path), **same)
        straight = fp_run(DESK, 90, init=(6, 6, 0, 0), seed=42, tie_break="random")
        assert state_fingerprint(resumed) == state_fingerprint(straight)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.fp"
        fp_run(DESK, 50, checkpoint_path=str(path))
        before = path.read_bytes()

        class TornFile(io.FileIO):
            def write(self, data):  # the magic lands, then the disk fills up
                if self.tell() > 0:
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(learning, "open", lambda p, mode: TornFile(p, "w"), raising=False)
        with pytest.raises(OSError, match="disk full"):
            fp_run(DESK, 80, checkpoint_path=str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(str(path)).rounds_played == 50
        assert [p.name for p in tmp_path.iterdir()] == ["keep.fp"]

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.fp"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(PreconditionError):
            load_checkpoint(str(path))

    @staticmethod
    def _overcount(payload, side):
        payload[f"counts_{side}"][0][-1] += 1

    @staticmethod
    def _off_budget_key(payload, side):
        # the same key in counts and discovery, so only the partition is wrong
        counted = payload[f"counts_{side}"][0]
        found = next(r for r in payload[f"discovery_{side}"] if r[:-1] == counted[:-1])
        for row in (counted, found):
            row[0] += 1

    @staticmethod
    def _undiscovered_key(payload, side):
        payload[f"discovery_{side}"].pop()

    @staticmethod
    def _missing_field(payload, side):
        del payload["rounds_played"]

    @staticmethod
    def _short_row(payload, side):
        payload[f"counts_{side}"][0].pop()  # K bids, no count

    @staticmethod
    def _unknown_mode(payload, side):
        payload["mode"] = "round-robin"

    @staticmethod
    def _unknown_tie_break(payload, side):
        payload["tie_break"] = "coin"

    @staticmethod
    def _negative_seed(payload, side):
        payload["seed"] = -1

    @staticmethod
    def _bad_rng_state(payload, side):
        payload["rng_state"] = {"bit_generator": "PCG64", "state": 5}

    # the two below replace the whole file rather than edit the payload

    @staticmethod
    def _not_json(payload, side):
        version = struct.pack("<I", learning.CHECKPOINT_VERSION)
        return learning.CHECKPOINT_MAGIC + version + b'{"rounds_played": '

    @staticmethod
    def _short_header(payload, side):
        return learning.CHECKPOINT_MAGIC + b"\x01\x00"

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            ("_overcount", "not rounds_played"),
            ("_off_budget_key", "bad partition"),
            ("_undiscovered_key", "different partitions"),
            ("_missing_field", "malformed checkpoint"),
            ("_short_row", "malformed checkpoint"),
            ("_unknown_mode", "mode must be one of"),
            ("_unknown_tie_break", "tie_break must be one of"),
            ("_negative_seed", "seed must be a non-negative integer"),
            ("_bad_rng_state", "malformed checkpoint"),
            ("_not_json", "malformed checkpoint"),
            ("_short_header", "malformed checkpoint"),
        ],
    )
    def test_rejects_corrupted_payload(self, tmp_path, corrupt, message, side):
        path = tmp_path / "bad.fp"
        fp_run(DESK, 60, checkpoint_path=str(path))
        blob = path.read_bytes()
        head = len(learning.CHECKPOINT_MAGIC) + 4
        payload = json.loads(blob[head:])
        damaged = getattr(self, corrupt)(payload, side)
        if damaged is None:
            damaged = blob[:head] + json.dumps(payload).encode("ascii")
        path.write_bytes(damaged)
        with pytest.raises(PreconditionError, match=message) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(str(path))

    @pytest.mark.parametrize(
        "other",
        [
            GameSpec(60, 3),
            GameSpec(12, 3),
            GameSpec(12, 4, Fraction(1, 3)),
            GameSpec(12, 4, allow_any_tie_value=True),
        ],
    )
    def test_resume_rejects_a_different_game(self, tmp_path, other):
        path = tmp_path / "desk.fp"
        fp_run(DESK, 30, checkpoint_path=str(path))
        with pytest.raises(PreconditionError, match="continues"):
            fp_run(other, 60, resume=str(path))


class TestRankReport:
    def test_sorted_rows_and_total_probability(self):
        state = fp_run(DESK, 400)
        report = rank_report(state, top=10)
        probs = [row.probability for row in report.rows]
        assert probs == sorted(probs, reverse=True)
        full = rank_report(state, top=report.support_size)
        assert sum(row.probability for row in full.rows) == 1
        assert all(row.first_round >= 1 for row in full.rows)

    def test_tie_breaking_lexicographic(self):
        state = fp_run(DESK, 400)
        report = rank_report(state, top=len(state.counts_a))
        for left, right in zip(report.rows, report.rows[1:]):
            assert (-left.probability, left.partition) <= (-right.probability, right.partition)

    def test_top_zero_reports_support_only(self):
        state = fp_run(SMALL, 30)
        report = rank_report(state, top=0)
        assert report.rows == ()
        assert report.support_size == len(state.counts_a)


class TestTrace:
    def test_round_one_tv_is_point_mass_distance(self):
        trace = fp_run(SMALL, 5, trace_every=100).trace
        first = trace[0]
        top = 2 * SMALL.fair_share
        assert first.round_index == 1
        assert first.tv_to_uniform == 1 - Fraction(1, top + 1)

    def test_gaps_nonnegative_and_tv_shrinks(self):
        trace = fp_run(DESK, 3000, trace_every=500).trace
        assert all(row.br_gap >= 0 for row in trace)
        assert trace[-1].tv_to_uniform < trace[0].tv_to_uniform

    def test_requires_divisible_budget(self):
        with pytest.raises(PreconditionError):
            fp_run(GameSpec(7, 3), 10, trace_every=5)
