"""The budget DP: the Python-int oracles against brute force, numpy against the oracles."""

import gc
import tracemalloc
from itertools import accumulate, combinations_with_replacement, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blotto_lab import GameSpec, MarginalProfile, best_response, kernels, learning, mixed
from blotto_lab.core import value_row
from conftest import examples
from blotto_lab.kernels import (
    best_split,
    best_split_numpy,
    br_lex_numpy,
    br_sampled_numpy,
    flat_width,
    get_kernels,
)
from oracles import best_split_python, br_lex_python, br_sampled_python, oracle_kernels

# The FP kernels by name: "python" is the Python-int oracle pair.
BACKENDS = ("numpy", "python")
KERNELS = {"numpy": get_kernels("numpy"), "python": oracle_kernels}


def random_values(rng, n, lo=-50, hi=500):
    return rng.integers(lo, hi, size=n + 1).astype(np.int64)


def allocations(n, k):
    """Every bid vector of ``k`` fields spending ``n``, in lexicographic order."""
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


@st.composite
def small_games(draw, shared):
    """(tables, budget) with N <= 10, K <= 4 and a value range narrow enough for ties."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(2, 4))
    top = draw(st.sampled_from([1, 3, 100]))
    row = st.lists(st.integers(-top, top), min_size=n + 1, max_size=n + 1)
    if shared:
        return [draw(row)] * k, n
    return [draw(row) for _ in range(k)], n


@settings(max_examples=examples(200), deadline=None)
@given(
    game=small_games(shared=False),
    sign=st.sampled_from([1, -1]),
    block=st.sampled_from([1, 2, 3, 64]),
)
def test_best_split_matches_enumeration(game, sign, block):
    # sign -1 minimizes: the DP runs on negated tables and negates the optimum;
    # small row blocks make the numpy form's block fill run several chunks,
    # the last ragged
    tables, n = game
    negated = [[sign * v for v in row] for row in tables]
    scored = [(sum(row[x] for row, x in zip(tables, s)), s) for s in allocations(n, len(tables))]
    optimum = max(v for v, _ in scored) if sign == 1 else min(v for v, _ in scored)
    first = min(s for v, s in scored if v == optimum)
    matrix = np.array(negated, dtype=np.int64)
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        for dp, given in ((best_split_python, negated), (best_split_numpy, matrix), (best_split, matrix)):
            value, bids = dp(given, n)
            assert sign * value == optimum
            assert bids == first


# The integer types best_split_numpy runs in, and the bound every sum of K
# entries stays below in each: 2**(bits - 4).
TYPE_GUARDS = {np.int16: 1 << 12, np.int32: 1 << 28, np.int64: 1 << 60}


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_numpy_best_split_matches_python(data):
    # budgets past the enumeration tests, row blocks that chunk them unevenly
    # and entries from each type band: the int64 form, and every narrower
    # type whose guard the entries stay below
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    top = data.draw(st.sampled_from([1, 2, 680, 1000, 2**20, 2**40, 2**56]))
    row = st.lists(st.integers(-top, top), min_size=n + 1, max_size=n + 1)
    tables = [data.draw(row) for _ in range(k)]
    block = data.draw(st.integers(1, n + 2))
    want = best_split_python(tables, n)
    bound = k * max(abs(v) for row in tables for v in row)
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        assert best_split_numpy(np.array(tables, dtype=np.int64), n) == want
        assert best_split_numpy(np.array(tables, dtype=object), n) == want
        for dtype, guard in TYPE_GUARDS.items():
            if bound < guard:
                assert best_split_numpy(np.array(tables, dtype=dtype), n) == want


def check_guard_boundary(k, sign, monkeypatch, dtype):
    # best_split_numpy runs in int64 while K * max|entry| < 2**60 and on
    # object (Python ints) from there on, whatever the matrix's dtype
    ran = []
    dp = kernels.best_split_numpy
    monkeypatch.setattr(kernels, "best_split_numpy", lambda t, b: ran.append(t.dtype) or dp(t, b))
    n = 5
    largest = ((1 << 60) - 1) // k  # the largest magnitude the guard admits
    for top, form in ((largest, np.dtype(np.int64)), (largest + 1, np.dtype(object))):
        tables = [[(x * 7 + j) % 5 - 2 for x in range(n + 1)] for j in range(k)]
        tables[k // 2][n // 2] = sign * top
        ran.clear()
        result = best_split(np.array(tables, dtype=dtype), n)
        assert ran == [form]
        assert result == best_split_python(tables, n)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_guard_boundary_picks_the_form(k, sign, monkeypatch):
    # an object matrix (Python ints) below the guard still runs in int64
    check_guard_boundary(k, sign, monkeypatch, object)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_matrix_input_takes_the_same_guard(k, sign, monkeypatch):
    # an int64 matrix must not bypass the guard; past it, the DP runs on Python ints
    check_guard_boundary(k, sign, monkeypatch, np.int64)


def check_type_band(k, sign, monkeypatch, given, guard, below, above):
    # best_split_numpy runs in the narrowest type whose guard every sum of K
    # entries stays below, on object past int64, whatever the matrix's
    # dtype: the largest magnitude a band admits takes it, one more the next
    ran = []
    numpy_dp = kernels.best_split_numpy
    monkeypatch.setattr(
        kernels, "best_split_numpy", lambda t, b: ran.append(t.dtype) or numpy_dp(t, b)
    )
    n = 5
    largest = (guard - 1) // k
    for top, form in ((largest, below), (largest + 1, above)):
        tables = [[(x * 7 + j) % 5 - 2 for x in range(n + 1)] for j in range(k)]
        for j in range(k):  # every field reaches the top somewhere: sums near K * top
            tables[j][(2 * j + 1) % (n + 1)] = sign * top
        ran.clear()
        result = best_split(np.array(tables, dtype=given), n)
        assert ran == [form]
        assert result == best_split_python(tables, n)


TYPE_BANDS = [
    (1 << 12, np.dtype(np.int16), np.dtype(np.int32)),
    (1 << 28, np.dtype(np.int32), np.dtype(np.int64)),
    (1 << 60, np.dtype(np.int64), np.dtype(object)),
]


@pytest.mark.parametrize("guard, below, above", TYPE_BANDS, ids=["2**12", "2**28", "2**60"])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("given", [object, np.int64], ids=["object", "int64"])
def test_type_band_boundaries(guard, below, above, k, sign, given, monkeypatch):
    check_type_band(k, sign, monkeypatch, given, guard, below, above)


def test_exact_side_rows_take_the_int64_form(monkeypatch):
    ran = []
    dp = kernels.best_split_numpy
    monkeypatch.setattr(kernels, "best_split_numpy", lambda t, b: ran.append(b) or dp(t, b))
    sp = GameSpec(60, 6, "1/3")
    best_response(MarginalProfile.uniform(sp), sp)
    assert ran == [60]


ROW_KINDS = ("monotone", "flat", "rising", "outside", "linear")


@st.composite
def value_rows(draw, n, kind=None):
    """A belief row ``core.value_row`` builds for budget ``n >= 1``.

    ``monotone``: a sparse histogram with 0 <= p <= q2, flat above its
    largest bid; ``flat``: flat from bid 0; ``rising``: never flat (every bid
    seen, p > 0); ``outside``: p > q2 or p < 0 and a seen bid whose neighbour
    on one side is empty, so the row decreases there; ``linear``: every bid
    seen equally often, so the row rises in equal steps and every bid vector
    ties.
    """
    kind = kind or draw(st.sampled_from(ROW_KINDS))
    q2 = draw(st.integers(1, 6))
    if kind == "linear":
        return value_row([draw(st.integers(1, 3))] * (n + 1), draw(st.integers(-q2, 2 * q2)), q2)
    if kind == "rising":
        p = draw(st.integers(1, q2))
        return value_row(draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1)), p, q2)
    if kind == "flat":
        return value_row([draw(st.integers(0, 3))] + [0] * n, q2, q2)
    top = draw(st.integers(0, n))
    seen = draw(st.dictionaries(st.integers(0, top), st.integers(1, 5), max_size=5))
    weights = [seen.get(x, 0) for x in range(n + 1)]
    if kind == "monotone":
        return value_row(weights, draw(st.integers(0, q2)), q2)
    # p > q2 drops the row after a seen bid x, p < 0 drops it at x
    above = draw(st.booleans())
    x = draw(st.integers(0, n - 1) if above else st.integers(1, n))
    weights[x] = draw(st.integers(1, 5))
    weights[x + 1 if above else x - 1] = 0
    p = draw(st.integers(q2 + 1, 3 * q2) if above else st.integers(-2 * q2, -1))
    return value_row(weights, p, q2)


def nondecreasing(row):
    return all(a <= b for a, b in zip(row, row[1:]))


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_width_rule(data):
    # the first maximal bid of a non-decreasing row; None (full width) otherwise
    n = data.draw(st.integers(1, 40))
    kind = data.draw(st.sampled_from(ROW_KINDS))
    row = data.draw(value_rows(n, kind))
    assert nondecreasing(row) == (kind != "outside")
    want = row.index(max(row)) if nondecreasing(row) else None
    assert flat_width(np.array(row)) == want
    if kind != "monotone":
        assert want == {"flat": 0, "rising": n, "outside": None, "linear": n}[kind]


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_truncated_lex_matches_python(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    row = data.draw(value_rows(n))
    assert br_lex_numpy(row, n, k) == best_split_python([row] * k, n)


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_truncated_sampler_matches_python(data):
    # the optimal-completion counts above the width decide which tie is drawn
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    row = data.draw(value_rows(n))
    uniforms = data.draw(
        st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)
    )
    assert br_sampled_numpy(row, n, k, uniforms) == br_sampled_python(row, n, k, uniforms)


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_truncated_best_split_matches_python(data):
    # monotone fields, at most one of them swapped for a non-monotone row:
    # that one field keeps every other field at full width
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 6))
    tables = [data.draw(value_rows(n, "monotone")) for _ in range(k)]
    odd = data.draw(st.one_of(st.none(), st.integers(0, k - 1)))
    if odd is not None:
        tables[odd] = data.draw(value_rows(n, "outside"))
    block = data.draw(st.integers(1, n + 2))
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        assert best_split_numpy(np.array(tables, dtype=np.int64), n) == best_split_python(tables, n)


@st.composite
def flat_topped_row(draw, n, width):
    """A non-decreasing row of ``n + 1`` entries whose first maximal entry is at ``width``."""
    steps = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=width, max_size=width))
    if width:
        steps[-1] += 1
    row = [draw(st.integers(-5, 5))]
    for step in steps + [0] * (n - width):
        row.append(row[-1] + step)
    return row


@settings(max_examples=examples(300), deadline=None)
@given(
    data=st.data(),
    widths_sum=st.sampled_from(["below", "above", "any"]),
    block=st.sampled_from([1, 2, 3, 64]),
)
def test_ranged_stages_match_python(data, widths_sum, block):
    # widths summing below N leave every stage flat above its range; above N
    # the range starts past 0 for the early stages; widths of any size mix
    # both in one call; one decreasing row puts every stage back on the
    # full range
    n = data.draw(st.integers(2, 24))
    k = data.draw(st.integers(2, 6))
    width = {
        "below": st.integers(0, (n - 1) // k),
        "above": st.integers(-(-(n + 1) // k), n),
        "any": st.integers(0, n),
    }[widths_sum]
    widths = [data.draw(width) for _ in range(k)]
    if widths_sum != "any":
        assert (sum(widths) < n) == (widths_sum == "below")
    tables = [data.draw(flat_topped_row(n, w)) for w in widths]
    odd = data.draw(st.one_of(st.none(), st.integers(0, k - 1)))
    if odd is not None:
        tables[odd] = data.draw(value_rows(n, "outside"))
    want = best_split_python(tables, n)
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        matrix = np.array(tables, dtype=np.int64)
        assert best_split_numpy(matrix, n) == want
        assert best_split(matrix, n) == want


@st.composite
def concave_row(draw, n):
    """``n + 1`` entries with non-increasing increments.

    Increments from a narrow range repeat within a row and across rows (ties);
    zeros give flat tops and negatives rows that fall.
    """
    steps = sorted(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), reverse=True)
    return list(accumulate(steps, initial=draw(st.integers(-5, 5))))


@st.composite
def run_row(draw, n, rising=False):
    """``n + 1`` entries in at most five constant runs (one: a constant row)."""
    cuts = draw(st.lists(st.integers(1, n), max_size=4, unique=True)) if n else []
    values = draw(st.lists(st.integers(-4, 4), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    if rising:
        values.sort()
    row, start = [], 0
    for end, value in zip(sorted(cuts) + [n + 1], values):
        row += [value] * (end - start)
        start = end
    return row


def dense_row(n):
    return st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1)


# Row shapes per call, from field 0 on: every kind of fill on its own, and
# the mixes where one fill reads another's stage.
LAYOUTS = {
    "concave": lambda k: ["concave"] * k,
    "runs": lambda k: ["runs"] * k,
    "rising runs": lambda k: ["rising runs"] * k,
    "dense then concave": lambda k: ["dense"] * (k // 2) + ["concave"] * (k - k // 2),
    "bent last row": lambda k: ["concave"] * (k - 1) + ["dense"],
    "runs between dense": lambda k: ["dense", "runs"] * (k // 2) + ["dense"] * (k % 2),
    "runs then concave": lambda k: ["runs"] * (k // 2) + ["concave"] * (k - k // 2),
}


@st.composite
def shaped_tables(draw, layout, min_n=0):
    n = draw(st.integers(min_n, 40))
    k = draw(st.integers(1, 6))
    shapes = {
        "concave": concave_row(n),
        "runs": run_row(n),
        "rising runs": run_row(n, rising=True),
        "dense": dense_row(n),
    }
    scale = draw(st.sampled_from([1, 2**40]))  # values near the int64 guard too
    return [[scale * v for v in draw(shapes[s])] for s in LAYOUTS[layout](k)], n


@settings(max_examples=examples(300), deadline=None)
@given(
    data=st.data(),
    layout=st.sampled_from(sorted(LAYOUTS)),
    sign=st.sampled_from([1, -1]),
    block=st.sampled_from([1, 3, 64]),
)
def test_shaped_stages_match_python(data, layout, sign, block):
    # value and witness against the Python DP, whichever fill each stage
    # takes; the sign flips concave rows to convex ones and rises to falls;
    # with ROW_BLOCK 1 the block fill takes a chunk per bid or so and the
    # merge and the run fill win at most stages, with 64 the block fill wins
    # at small N
    tables, n = data.draw(shaped_tables(layout))
    tables = [[sign * v for v in row] for row in tables]
    want = best_split_python(tables, n)
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        matrix = np.array(tables, dtype=np.int64)
        assert best_split_numpy(matrix, n) == want
        assert best_split(matrix, n) == want


OBJECT_SHAPES = ("ranged", "decreasing", "concave", "few runs")


@st.composite
def object_tables(draw):
    """``(tables, budget)``: 2 to 6 rows of the shapes the fills key on, past int64.

    Each row is one shape times a signed factor of ``2**55`` to ``2**201``,
    plus a shift of up to that size (a shift changes no argmax), so its
    entries are Python ints from about ``2**55`` to past ``2**200`` in
    magnitude.
    """
    n = draw(st.integers(1, 12))
    k = draw(st.integers(2, 6))
    tables = []
    for _ in range(k):
        shape = draw(st.sampled_from(OBJECT_SHAPES))
        row = draw({
            "ranged": flat_topped_row(n, draw(st.integers(0, n))),
            "decreasing": value_rows(n, "outside"),
            "concave": concave_row(n),
            "few runs": run_row(n),
        }[shape])
        bits = draw(st.integers(55, 200))
        scale = draw(st.integers(1 << bits, 1 << (bits + 1))) * draw(st.sampled_from([1, -1]))
        shift = draw(st.integers(-(1 << bits), 1 << bits))
        tables.append([scale * v + shift for v in row])
    return tables, n


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 3, 64]))
def test_object_dps_match_the_oracles(data, block):
    # every DP on object matrices and rows (Python ints), whichever fill each
    # stage of best_split takes and however the scratch chunks it, against
    # the Python-int oracles
    tables, n = data.draw(object_tables())
    k = len(tables)
    uniforms = data.draw(
        st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)
    )
    matrix = np.array(tables, dtype=object)
    want = best_split_python(tables, n)
    with mock.patch.object(kernels, "ROW_BLOCK", block):
        assert best_split_numpy(matrix, n) == want
        assert best_split(matrix, n) == want
    row = matrix[0]
    assert br_lex_numpy(row, n, k) == br_lex_python(tables[0], n, k)
    assert br_sampled_numpy(row, n, k, uniforms) == br_sampled_python(tables[0], n, k, uniforms)


def test_object_sentinel_lies_below_every_reachable_sum():
    # Every split of 2 units over 3 fields of this row scores -2**65 at best,
    # below int64's sentinel -2**61: that sentinel plus the entry 0 would beat
    # the reachable sums, and every DP would return a wrong argmax.
    row = [-(1 << 64), -(1 << 64), 0]
    matrix = np.array([row] * 3, dtype=object)
    assert best_split(matrix, 2) == best_split_python([row] * 3, 2) == (-(1 << 65), (0, 0, 2))
    assert br_lex_numpy(matrix[0], 2, 3) == br_lex_python(row, 2, 3)
    for uniforms in ([0.1, 0.1], [0.9, 0.9]):
        assert br_sampled_numpy(matrix[0], 2, 3, uniforms) == br_sampled_python(row, 2, 3, uniforms)


def fills(monkeypatch):
    """Record the stage fills best_split_numpy takes, by name."""
    ran = []
    for name in ("_merge_stage", "_runs_stage"):
        fill = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name, lambda *a, _f=fill, _n=name: ran.append(_n) or _f(*a)
        )
    return ran


def concave(row):
    steps = [b - a for a, b in zip(row, row[1:])]
    return all(b <= a for a, b in zip(steps, steps[1:]))


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data(), layout=st.sampled_from(sorted(LAYOUTS)))
def test_fill_follows_the_rows(data, layout):
    # A call of non-decreasing rows never takes the run fill.  In a call with
    # a decreasing row every stage runs at full range, and with its cells
    # priced out of reach (and ROW_BLOCK 1, a chunk per bid or so) the block
    # fill is dearest: every stage whose row and later rows are concave
    # merges, and every other stage whose row has few runs takes the run fill.
    tables, n = data.draw(shaped_tables(layout, min_n=8))
    k = len(tables)
    falls = any(b < a for row in tables for a, b in zip(row, row[1:]))
    stages = range(k - 2, 0, -1)
    merges = sum(all(map(concave, tables[j:])) for j in stages)
    few_runs = sum(LAYOUTS[layout](k)[j] == "runs" for j in stages[merges:])
    with pytest.MonkeyPatch.context() as monkeypatch:
        ran = fills(monkeypatch)
        monkeypatch.setattr(kernels, "ROW_BLOCK", 1)
        monkeypatch.setattr(kernels, "CELL", dict.fromkeys(kernels.CELL, 10**9))
        assert best_split_numpy(np.array(tables, dtype=np.int64), n) == best_split_python(tables, n)
    merged = ran.count("_merge_stage")
    assert ran[:merged] == ["_merge_stage"] * merged  # the suffix fills first
    if falls:
        assert merged == merges
        assert few_runs <= len(ran) - merged <= len(stages) - merges
    else:
        assert merged <= merges
        assert "_runs_stage" not in ran


def block_fills(monkeypatch):
    """Record each block fill a DP plans: ``((lo, hi, first, last bid), cells)``."""
    ran = []
    plan = kernels._block_plan

    def spy(row, windows, lo, hi, first, scratch):
        ran.append(((lo, hi, first, len(row) - 1), len(scratch)))
        return plan(row, windows, lo, hi, first, scratch)

    monkeypatch.setattr(kernels, "_block_plan", spy)
    return ran


def chunks(box, cells):
    """The ``(first bid, bids, first budget)`` of each chunk of a block fill.

    A chunk takes as many bids as ``cells`` holds rows of its budgets, which
    start at its first bid or at ``lo``, whichever is higher.
    """
    lo, hi, x0, last = box
    out = []
    while x0 <= last:
        r0 = max(lo, x0)
        size = min(last + 1 - x0, cells // (hi + 1 - r0))
        out.append((x0, size, r0))
        x0 += size
    return out


def zigzag(n, width, step=1):
    """``n + 1`` entries rising by ``step`` and ``3 * step`` in turn up to ``width``, flat above.

    Non-decreasing and not concave, like the parity marginals' rows: neither
    the merge nor (in a ranged call) the run fill serves them.
    """
    incs = [step * (1 + 2 * (x % 2)) for x in range(width)] + [0] * (n - width)
    return list(accumulate(incs, initial=0))


@pytest.mark.parametrize("block", [1, 3, 64])
def test_block_fill_skips_an_empty_span(block, monkeypatch):
    # widths summing below N: every stage is flat over the budgets the walk
    # reaches, so no block fill runs (the span lo > hi has no rows to chunk)
    n, widths = 40, (3, 9, 0, 5, 2, 7)
    tables = [zigzag(n, w) for w in widths]
    ran, other = block_fills(monkeypatch), fills(monkeypatch)
    monkeypatch.setattr(kernels, "ROW_BLOCK", block)
    assert best_split_numpy(np.array(tables, dtype=np.int16), n) == best_split_python(tables, n)
    assert ran == other == []


@pytest.mark.parametrize("block", [1, 3, 64])
def test_block_fill_chunks_above_lo(block, monkeypatch):
    # a ranged stage whose budgets start at lo = 100: the first chunk takes
    # the bids from 0, and a later chunk starts at a bid above lo and skips
    # the budgets below it; with ROW_BLOCK 1 each chunk holds a few bids
    n = 200
    tables = [zigzag(n, 100, 3), zigzag(n, 150), zigzag(n, 150, 2)]
    ran = block_fills(monkeypatch)
    monkeypatch.setattr(kernels, "ROW_BLOCK", block)
    for dtype in (np.int16, np.int32, np.int64):
        ran.clear()
        assert best_split_numpy(np.array(tables, dtype=dtype), n) == best_split_python(tables, n)
        [(box, cells)] = ran
        assert box == (100, 200, 0, 150)
        parts = chunks(box, cells)
        assert any(x0 > 100 and r0 == x0 for x0, _, r0 in parts)
        if block == 1:
            assert parts[0] == (0, 1, 100) and len(parts) > 100


@pytest.mark.parametrize("block", [1, 3, 64])
def test_block_fill_one_bid_per_chunk(block, monkeypatch):
    # a call at full range (the last row falls): with ROW_BLOCK 1 a chunk
    # holds one bid while its budgets fill more than half the scratch, so
    # every stage runs chunks of single bids; the larger blocks take several
    n, k = 150, 4
    tables = [[(x * 37 + 11 * j) % 23 for x in range(n + 1)] for j in range(k)]
    ran = block_fills(monkeypatch)
    monkeypatch.setattr(kernels, "ROW_BLOCK", block)
    for sign in (1, -1):
        rows = [[sign * v for v in row] for row in tables]
        ran.clear()
        assert best_split(np.array(rows, dtype=np.int64), n) == best_split_python(rows, n)
        assert [box for box, _ in ran] == [(0, n, 0, n)] * (k - 2)
        sizes = [size for box, cells in ran for _, size, _ in chunks(box, cells)]
        assert sizes.count(1) >= (n // 2 if block == 1 else 0)
        assert sum(sizes) == (k - 2) * (n + 1)


def gap_matrix(candidate, target, spec):
    """``dominate``'s difference tables, candidate minus target, in units of 1/q2."""
    p, q2 = spec.tie_scale
    rows = []
    for c, t in zip(candidate, target):
        rows.append([q2 * ((b < c) - (b < t)) + p * ((b == c) - (b == t)) for b in range(spec.budget + 1)])
    return rows


def test_fills_at_600_6(monkeypatch):
    # the rows the exact verdicts hand the DP at 600/6, and the fill each
    # stage takes: uniform rows merge, dominance rows take the run fill,
    # point-mass and parity rows keep the block fill, and so do monotone rows
    # of few runs whose call is ranged
    ran = fills(monkeypatch)
    spec = GameSpec(600, 6, "1/3")
    cand, target = (100, 50, 150, 120, 80, 100), (90, 200, 10, 100, 140, 60)
    gaps = np.array(gap_matrix(cand, target, spec), dtype=np.int64)
    staircase = np.array([[0] * 200 + [3] * 300 + [5] * 101] * 6, dtype=np.int64)
    cases = [
        (mixed.value_matrix(MarginalProfile.uniform(spec), spec), ["_merge_stage"] * 4),
        (gaps, ["_runs_stage"] * 4),
        (-gaps, ["_runs_stage"] * 4),
        (mixed.value_matrix(MarginalProfile.point_mass(spec, cand), spec), []),
        (mixed.value_matrix(MarginalProfile.parity(spec, "odd"), spec), []),
        (staircase, []),
    ]
    for tables, want in cases:
        ran.clear()
        assert best_split(tables, 600) == best_split_python(tables.tolist(), 600)
        assert ran == want


def _tie_count_stages(row, n, k):
    """The stages ``1 .. k - 2`` at which ``br_sampled_numpy`` counts ties above the width.

    A stage needs the count only when its previous stage has a flat step
    ``prev[t - 1] == prev[t]`` for some ``t`` in ``1 .. n - w``.  Built here
    from Python lists, for non-decreasing rows.
    """
    w = row.index(max(row))
    prev, need = list(row), []
    for c in range(1, k - 1):
        if any(prev[t - 1] == prev[t] for t in range(1, n - w + 1)):
            need.append(c)
        prev = [max(row[x] + prev[r - x] for x in range(r + 1)) for r in range(n + 1)]
    return need


# Non-decreasing rows, by whether some stage counts the ties above the width.
SKIP_ROWS = [
    list(range(8)) + [7] * 3,  # w = 7 > n - w: no stage has a flat step below n - w
    [0, 1, 2, 4, 5, 5, 6, 6, 6, 6],  # flat steps, all of them above n - w = 3
]
COUNT_ROWS = [
    # budgets above K * w: some bid above w ties in every optimum
    [0, 2] + [3] * 13,  # w = 2 at n = 14
    value_row([2, 0, 1] + [0] * 18, 1, 2),  # a belief row: w = 3 at n = 20
]


def count_dp_draw(row, n, k, uniforms):
    """``br_sampled_numpy``'s draw from the completion counts, with no certificate."""
    with mock.patch.object(kernels, "_optimal_partitions", lambda *args: None):
        return br_sampled_numpy(row, n, k, uniforms)


@pytest.mark.parametrize(
    "row, counted", [(r, False) for r in SKIP_ROWS] + [(r, True) for r in COUNT_ROWS]
)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_sampler_tie_count_branch_matches_python(row, counted, k):
    # every draw of a grid of uniforms, on rows that skip the closed-form
    # count of ties above the width and rows that need it; the count DP runs
    # on every row, though [0, 1, 2, 4, 5, 5, 6, 6, 6, 6] has one optimal
    # partition and the kernel itself draws from it in closed form
    n = len(row) - 1
    assert nondecreasing(row) and flat_width(np.array(row)) < n
    assert bool(_tie_count_stages(row, n, k)) == counted
    grid = np.linspace(0, 1, 5, endpoint=False)
    for uniforms in product(grid, repeat=k - 1):
        want = br_sampled_python(row, n, k, uniforms)
        assert br_sampled_numpy(row, n, k, uniforms) == want
        assert count_dp_draw(row, n, k, uniforms) == want


@pytest.fixture
def count_dp_calls(monkeypatch):
    """The calls of the sampler's count DP (``kernels._completion_counts``)."""
    calls = []
    counts = kernels._completion_counts

    def spy(*args):
        calls.append(args)
        return counts(*args)

    monkeypatch.setattr(kernels, "_completion_counts", spy)
    return calls


# (row, fields): every optimal bid vector orders one partition, so the
# sampler draws in closed form and never counts completions
ONE_PARTITION_ROWS = [
    ([0, 10, 18, 24, 28, 30, 31], 3),  # concave: (2, 2, 2)
    ([0, 10, 18, 24, 28, 30, 31, 31], 3),  # concave: (3, 2, 2), three orderings
    ([0, 1, 2, 4, 5, 5, 6, 6, 6, 6], 4),  # (3, 2, 2, 2): ties above the width, all orderings
    (value_row([4, 1, 0, 2, 0, 0, 3] + [0] * 9, 1, 3), 5),  # a belief row, n = 15
    ([5, -3, 8, -1, 2, 9, 0, 4, 1], 4),  # decreasing: full width
    ([0, 0, 0, 0, 0, 0, 0, 0, 1], 2),  # (8, 0)
]
# two or more optimal partitions tie: the search lists a few, and the walk
# draws over their orderings in closed form; linear and flat rows, and rows
# whose bids above the width tie, list more than the search's budget, and
# the walk reads the counts, as it does at two fields from three partitions
# on, where counting is one step of the walk and costs about as much as
# listing two partitions (6 us each at n = 4)
TIED_PARTITION_ROWS = [
    ([0, 0, 1, 1, 2], 2),  # (4, 0) and (2, 2)
    ([0, 0, 1, 1, 2], 3),  # (4, 0, 0) and (2, 2, 0)
    ([0, 1, 2, 3, 4, 5, 6, 7], 4),  # linear: every bid vector ties
    ([0, 2] + [3] * 13, 3),  # bids above the width tie
    ([0] * 6, 5),  # flat: every bid vector ties
    ([0, 0, 1, 1, 2, 2, 3, 3, 4], 2),  # (8, 0), (6, 2) and (4, 4)
]
COUNTED_ROWS = TIED_PARTITION_ROWS[2:]


@pytest.mark.parametrize(
    "row, k, one",
    [(r, k, True) for r, k in ONE_PARTITION_ROWS] + [(r, k, False) for r, k in TIED_PARTITION_ROWS],
)
def test_sampler_branches_match_python(row, k, one, count_dp_calls):
    # a grid of uniforms reaches every ordering the rows admit; the closed
    # form runs on one optimal partition and on a few, the count DP on the
    # tie sets past the search's budget
    n = len(row) - 1
    assert (len(optimal_partitions(row, n, k)) == 1) == one
    closed = (row, k) not in COUNTED_ROWS
    grid = np.linspace(0, 1, 7, endpoint=False)
    for uniforms in product(grid, repeat=k - 1):
        count_dp_calls.clear()
        assert br_sampled_numpy(row, n, k, uniforms) == br_sampled_python(row, n, k, uniforms)
        assert (not count_dp_calls) == closed


def optimal_partitions(row, n, k):
    """The partitions that some optimal bid vector orders, by enumeration."""
    scores = {s: sum(row[x] for x in s) for s in allocations(n, k)}
    best = max(scores.values())
    return {tuple(sorted(s, reverse=True)) for s, score in scores.items() if score == best}


@st.composite
def sampler_rows(draw, n):
    """A belief row, a signed row of few values (ties are common) or an ``object`` row.

    ``object`` rows are signed rows scaled past int64.
    """
    shape = draw(st.sampled_from(("belief", "signed", "object")))
    if shape == "belief":
        return draw(value_rows(n))
    top = draw(st.sampled_from([1, 3, 50]))
    row = draw(st.lists(st.integers(-top, top), min_size=n + 1, max_size=n + 1))
    if shape == "object":
        scale = draw(st.integers(1 << 64, 1 << 70)) * draw(st.sampled_from([1, -1]))
        row = np.array([scale * x for x in row], dtype=object)
    return row


def uniform_lists(k):
    return st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)


def optimal_first_bids(row, n, k):
    """``D``: the first bids of the optimal bid vectors, by enumeration."""
    scores = {s: sum(row[x] for x in s) for s in allocations(n, k)}
    best = max(scores.values())
    return {s[0] for s, score in scores.items() if score == best}


def check_certificate(row, n, k, uniforms):
    """The search lists exactly the optimal partitions, each once, every part in ``D``, or gives up.

    With or without the list, the draw is the oracle's.
    """
    found = []
    search = kernels._optimal_partitions

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    with mock.patch.object(kernels, "_optimal_partitions", spy):
        got = br_sampled_numpy(row, n, k, uniforms)
    want = optimal_partitions(list(row), n, k)
    if found[0] is not None:
        assert sorted(found[0]) == sorted(want)
        firsts = optimal_first_bids(list(row), n, k)
        assert all(x in firsts for parts in found[0] for x in parts)
    assert got == count_dp_draw(row, n, k, uniforms) == br_sampled_python(row, n, k, uniforms)


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_partition_certificate_matches_enumeration(data):
    # the search lists exactly the optimal partitions, by brute force, each
    # once and every part an optimal first bid, or gives up (None); with or
    # without the list the draw is the oracle's, on belief rows, signed rows
    # and object rows past int64
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(2, 5))
    row = data.draw(sampler_rows(n))
    uniforms = data.draw(uniform_lists(k))
    check_certificate(row, n, k, uniforms)


# (row, fields): rows whose optimal first bids D leave gaps in the ranges
# the search scans, and rows whose optimal bids reach above the width
GAPPED_ROWS = [
    ([0, 0, 1, 1, 2], 3),  # D = {0, 2, 4}
    ([0, 0, 0, 5, 5, 5, 5, 9, 9, 9, 12], 3),  # D = {3, 4}: (4, 3, 3) alone
    ([0, 0, 2, 2, 4, 4, 6, 6, 8], 3),  # parity: D = {0, 2, 4, 6, 8}, four partitions
    ([0, -1, 3, -1, 6, -1, 9, -1, 12, -1, 15, -1, 18], 4),  # signed parity: 9 partitions
] + [(row, k) for row in COUNT_ROWS for k in (3, 4)]


@pytest.mark.parametrize("row, k", GAPPED_ROWS)
def test_partition_certificate_on_gapped_and_wide_rows(row, k):
    # at the search's own budget and at an unlimited one
    n = len(row) - 1
    firsts = optimal_first_bids(row, n, k)
    assert set(range(n + 1)) - firsts
    *_, stages, _, _, cand = kernels._fp_stages(row, n, k)
    listed = kernels._optimal_partitions(stages, cand, cand.max(), 1 << 80)
    assert sorted(listed) == sorted(optimal_partitions(row, n, k))
    assert all(x in firsts for parts in listed for x in parts)
    grid = np.linspace(0, 1, 3, endpoint=False)
    for uniforms in product(grid, repeat=k - 1):
        check_certificate(row, n, k, uniforms)


def listed_draw(row, n, k, uniforms):
    """``br_sampled_numpy``'s draw over the full list of optimal partitions, at any size."""
    search = kernels._optimal_partitions
    with mock.patch.object(kernels, "_optimal_partitions",
                           lambda stages, cand, top, budget: search(stages, cand, top, 1 << 80)):
        return br_sampled_numpy(row, n, k, uniforms)


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_tie_set_walk_matches_the_counts(data):
    # rows with two or more optimal partitions: the walk over the listed
    # partitions, the count DP and the oracle make the same draw
    n = data.draw(st.integers(1, 10))
    k = data.draw(st.integers(2, 5))
    row = data.draw(sampler_rows(n))
    want = optimal_partitions(list(row), n, k)
    assume(len(want) > 1)
    uniforms = data.draw(uniform_lists(k))
    expected = br_sampled_python(row, n, k, uniforms)
    assert listed_draw(row, n, k, uniforms) == count_dp_draw(row, n, k, uniforms) == expected
    assert br_sampled_numpy(row, n, k, uniforms) == expected


def test_tie_sets_past_the_budget_take_the_count_dp(count_dp_calls):
    # the reply of round 2 at 120/6, alpha 1/3, to the even split (20, .., 20)
    # played once: 408 optimal partitions, more than a quarter of the count
    # DP's price lists; a row with two still draws in closed form
    spec = GameSpec(120, 6, "1/3")
    p, q2 = spec.tie_scale
    weights = [0] * 121
    weights[20] = 6
    round_two = np.array(value_row(weights, p, q2), dtype=np.int32)
    found = []
    search = kernels._optimal_partitions

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    uniforms = [0.3, 0.9, 0.1, 0.5, 0.7]
    with mock.patch.object(kernels, "_optimal_partitions", spy):
        got = br_sampled_numpy(round_two, 120, 6, uniforms)
        assert found == [None] and len(count_dp_calls) == 1
        assert got == listed_draw(round_two, 120, 6, uniforms)
        assert sum(got[1]) == 120 and got[0] == 5 * 6 * q2
        found.clear()
        count_dp_calls.clear()
        got = br_sampled_numpy([0, 0, 1, 1, 2], 4, 3, uniforms[:2])
        assert len(found[0]) == 2 and not count_dp_calls


def test_a_captured_tie_set_lists_within_the_budget(count_dp_calls):
    # B's reply in round 9 of the seed-0 random run at 120/6, alpha 1/3: two
    # optimal partitions.  A search over every bid of each state's range
    # gave up on it and counted; over the optimal first bids it lists both
    # within the budget, and draws as the count DP and the oracle do
    spec = GameSpec(120, 6, "1/3")
    p, q2 = spec.tie_scale
    state = learning.fp_run(spec, 8, seed=0, tie_break="random")
    row = learning._belief_values(state.hist_a, p, q2, np.dtype(np.int32))
    count_dp_calls.clear()  # the run's own: round 2's tie set, say
    found = []
    search = kernels._optimal_partitions

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    with mock.patch.object(kernels, "_optimal_partitions", spy):
        for uniforms in ([0.1, 0.2, 0.3, 0.4, 0.5], [0.9, 0.7, 0.5, 0.3, 0.1]):
            found.clear()
            got = br_sampled_numpy(row, 120, 6, uniforms)
            assert sorted(found[0]) == [(37, 33, 32, 6, 6, 6), (37, 33, 33, 6, 6, 5)]
            assert got == count_dp_draw(row, 120, 6, uniforms)
            assert got == br_sampled_python(row.tolist(), 120, 6, uniforms)
    assert len(count_dp_calls) == 2  # the two count_dp_draw calls alone


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("shape", ["rising", "tied", "signed"])
def test_int32_and_int64_fp_kernels_agree_at_the_guard(k, shape):
    # entries up to top = (2**28 - 1) / K in magnitude, so K * max|entry|
    # sits one below int32's guard: the int32 rows draw and reply as the
    # int64 rows and the oracles do, the sampler's counts in int64
    top = ((1 << 28) - 1) // k
    assert k * top == (1 << 28) - 1
    n = 9
    rows = {
        "rising": [top * x // n for x in range(n + 1)],
        "tied": [0, 0, top // 2, top // 2, top] + [top] * (n - 4),
        "signed": [top, -top, top // 3, -top, 0, top, -top // 7, top // 2, -top, top],
    }
    row = rows[shape]
    grid = np.linspace(0, 1, 4, endpoint=False)
    v32, v64 = np.array(row, dtype=np.int32), np.array(row, dtype=np.int64)
    assert br_lex_numpy(v32, n, k) == br_lex_numpy(v64, n, k) == br_lex_python(row, n, k)
    for uniforms in product(grid, repeat=k - 1):
        want = br_sampled_python(row, n, k, uniforms)
        assert br_sampled_numpy(v32, n, k, uniforms) == want
        assert br_sampled_numpy(v64, n, k, uniforms) == want
        assert count_dp_draw(v32, n, k, uniforms) == want
    assert kernels._workspace(n, v32.dtype, kernels.ROW_BLOCK).pad_counts.dtype == np.int64


def test_fp_kernel_calls_leave_no_reference_cycle():
    # 120/6 belief rows, with one optimal partition and with tied ones: a
    # call's buffers are freed by reference counting alone, so a run's RSS
    # does not wait on the cyclic collector
    rng = np.random.default_rng(2)
    rows = [value_row(np.bincount(rng.integers(0, 41, 6 * rounds), minlength=121).tolist(), 1, 6)
            for rounds in (1, 5, 40, 300)]
    rows.append(list(range(121)))  # every bid vector ties
    # best_split_numpy on the same rows (ranged, from its block fill) and on
    # rows that fall somewhere (full range)
    matrices = [np.array([row] * 6, dtype=np.int64) for row in rows]
    matrices.append(rng.integers(-50, 50, (6, 121)))
    for row in rows:  # warm the cached workspace
        br_sampled_numpy(row, 120, 6, [0.5] * 5)
    for matrix in matrices:
        best_split_numpy(matrix, 120)
    gc.collect()
    gc.disable()
    try:
        for i in range(200):
            row = rows[i % len(rows)]
            br_sampled_numpy(row, 120, 6, rng.random(5))
            best_split_numpy(matrices[i % len(matrices)], 120)
            br_lex_numpy(row, 120, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=examples(200), deadline=None)
@given(game=small_games(shared=True))
def test_numpy_lex_matches_best_split(game):
    tables, n = game
    assert br_lex_numpy(tables[0], n, len(tables)) == best_split_python(tables, n)


@settings(max_examples=examples(200), deadline=None)
@given(game=small_games(shared=True), data=st.data())
def test_numpy_sampler_matches_python_sampler(game, data):
    tables, n = game
    k = len(tables)
    uniforms = data.draw(
        st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)
    )
    assert br_sampled_numpy(tables[0], n, k, uniforms) == br_sampled_python(
        tables[0], n, k, uniforms
    )


@settings(max_examples=examples(100), deadline=None)
@given(data=st.data())
def test_numpy_kernels_carry_nothing_between_budgets(data):
    # every numpy DP shares one cached per-budget workspace, which also keeps
    # the FP stages and the block plans of the last widths: switching budgets
    # N1, N2, N1 in one example, two rows of their own widths and field
    # counts in turn (the two sides of a run), and best_split_numpy between
    # the FP kernels at the same budget and type (int64 or object, whose
    # sentinels come from each call's own entries) must not leak a stage, a
    # plan, a sentinel or a count from one call into the next
    n1, n2 = data.draw(st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True))
    for n in (n1, n2, n1):
        dtype = data.draw(st.sampled_from([np.int64, object]))
        top, table_top = (data.draw(st.sampled_from([1, 2, 100])) for _ in range(2))
        side = st.one_of(
            value_rows(n), st.lists(st.integers(-top, top), min_size=n + 1, max_size=n + 1)
        )
        sides = [(data.draw(side), data.draw(st.integers(1, 4))) for _ in range(2)]
        row = st.lists(st.integers(-table_top, table_top), min_size=n + 1, max_size=n + 1)
        tables = [data.draw(row) for _ in range(data.draw(st.integers(1, 4)))]
        matrix = np.array(tables, dtype=dtype)
        for values, k in sides * 2:
            uniforms = data.draw(
                st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)
            )
            given_values = np.array(values, dtype=object) if dtype is object else values
            assert best_split_numpy(matrix, n) == best_split_python(tables, n)
            assert br_lex_numpy(given_values, n, k) == best_split_python([values] * k, n)
            assert br_sampled_numpy(given_values, n, k, uniforms) == br_sampled_python(
                values, n, k, uniforms
            )


@settings(max_examples=examples(60), deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 3, 64]), big=st.booleans())
def test_fp_stages_fill_in_several_chunks(data, block, big):
    # rows as wide as the budget (rising, or linear: every bid vector ties)
    # or at full width (they decrease somewhere), with w + 1 > ROW_BLOCK:
    # every FP stage takes several chunks of the block fill, the later ones
    # from their first bid on, and the count DP sums its mask over the same
    # chunks; on int64 rows and object rows past 2**64
    n = data.draw(st.integers(block, block + 12))
    k = data.draw(st.integers(3, 5))
    row = data.draw(value_rows(n, data.draw(st.sampled_from(("rising", "linear", "outside")))))
    uniforms = data.draw(
        st.lists(st.floats(0, 1, exclude_max=True), min_size=k - 1, max_size=k - 1)
    )
    values = row
    if big:
        scale = data.draw(st.integers(1 << 64, 1 << 70))
        row = [scale * x for x in row]
        values = np.array(row, dtype=object)
    want = br_sampled_python(row, n, k, uniforms)
    kernels._workspace.cache_clear()  # a fresh workspace plans the first call's width
    with pytest.MonkeyPatch.context() as monkeypatch:
        ran = block_fills(monkeypatch)
        monkeypatch.setattr(kernels, "ROW_BLOCK", block)
        assert br_lex_numpy(values, n, k) == br_lex_python(row, n, k)
        assert br_sampled_numpy(values, n, k, uniforms) == want
        assert count_dp_draw(values, n, k, uniforms) == want
    [(box, cells)] = ran  # the sampler and its count DP reuse the lex call's plan
    assert box == (0, n, 0, n) and len(chunks(box, cells)) > 1


def test_dps_peak_in_block_memory(count_dp_calls):
    # at N = 5,000, K = 6, one call of each numpy DP, every stage at full
    # width, allocates O(ROW_BLOCK * N + K * N) cells: no (N + 1)**2 buffer
    # (200 MB in int64); the sampler's linear row ties every bid vector, so
    # the count DP runs
    n, k = 5000, 6
    rng = np.random.default_rng(3)
    linear = np.arange(n + 1, dtype=np.int64)
    calls = [
        lambda: br_lex_numpy(rng.integers(0, 1000, n + 1), n, k),
        lambda: br_sampled_numpy(linear, n, k, [0.5] * (k - 1)),
        lambda: best_split_numpy(rng.integers(-1000, 1000, (k, n + 1)), n),
    ]
    for call in calls:
        kernels._workspace.cache_clear()  # the workspace counts too
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
    assert len(count_dp_calls) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_lex_against_exhaustive_search(backend):
    kern = KERNELS[backend]
    rng = np.random.default_rng(1)
    for n, k in ((6, 3), (9, 2), (5, 4), (12, 4)):
        for _ in range(12):
            values = random_values(rng, n)
            total, bids = kern.lex(values, n, k)
            assert sum(bids) == n and len(bids) == k
            best = None
            best_bids = None
            for s in allocations(n, k):
                v = sum(int(values[x]) for x in s)
                if best is None or v > best or (v == best and s < best_bids):
                    best, best_bids = v, s
            assert total == best
            assert bids == best_bids


def test_all_backends_identical_lex():
    # the numpy kernel in int64 and on object against the oracle
    rng = np.random.default_rng(7)
    kerns = [KERNELS[b] for b in BACKENDS]
    for n, k in ((10, 4), (20, 6), (40, 3)):
        for _ in range(10):
            values = random_values(rng, n)
            results = [kern.lex(values, n, k) for kern in kerns]
            results.append(br_lex_numpy(values.astype(object), n, k))
            assert len({(t, b) for t, b in results}) == 1, results


def test_all_backends_identical_sampled():
    rng = np.random.default_rng(11)
    kerns = [KERNELS[b] for b in BACKENDS]
    for n, k in ((10, 4), (14, 3)):
        for _ in range(10):
            values = random_values(rng, n, lo=0, hi=5)  # small range forces ties
            uniforms = rng.random(k - 1)
            results = [kern.sampled(values, n, k, uniforms) for kern in kerns]
            results.append(br_sampled_numpy(values.astype(object), n, k, uniforms))
            assert len({(t, b) for t, b in results}) == 1, results


def test_sampled_value_matches_lex_value():
    rng = np.random.default_rng(3)
    for kern in KERNELS.values():
        for _ in range(20):
            values = random_values(rng, 12, lo=0, hi=4)
            total_lex, _ = kern.lex(values, 12, 4)
            total_sampled, bids = kern.sampled(values, 12, 4, rng.random(3))
            assert total_sampled == total_lex
            assert sum(int(values[x]) for x in bids) == total_lex


def test_sampled_spreads_over_maximizers():
    # all-zero values: every allocation is optimal; the sampler should reach
    # several distinct ones while lex always returns (0, 0, ..., n)
    n, k = 6, 3
    values = [0] * (n + 1)
    for kern in KERNELS.values():
        rng = np.random.default_rng(5)
        seen = {kern.sampled(values, n, k, rng.random(k - 1))[1] for _ in range(200)}
        assert len(seen) > 5
        assert kern.lex(values, n, k)[1] == (0, 0, 6)


def test_python_backend_handles_big_integers():
    huge = [x * x * 10**30 for x in range(11)]  # convex: all-in on one field wins
    for total, bids in (br_lex_python(huge, 10, 2), br_lex_numpy(np.array(huge, dtype=object), 10, 2)):
        assert total == 100 * 10**30
        assert bids == (0, 10)


def test_kernel_agrees_with_exact_best_response():
    # the shared-table DP on one value row must match the per-field exact DP
    from fractions import Fraction

    sp = GameSpec(12, 4, Fraction(1, 3))
    profile = MarginalProfile.uniform(sp)
    exact = best_response(profile, sp)
    den, weights = profile.scaled()
    p, q2 = sp.tie_scale
    values = value_row(weights[0], p, q2)
    for backend in BACKENDS:
        total, bids = KERNELS[backend].lex(values, sp.budget, sp.battlefields)
        assert Fraction(total, q2 * den) == exact.value
        assert bids == exact.argmax
