"""The budget DP: maximize a separable value over exact-budget splits.

Every exact best response and every fictitious-play reply reduces to
maximizing ``sum_k tables[k][bid_k]`` over bid vectors that spend the budget
exactly.  One engine serves both, as numpy max-plus stages, on two kinds of
input:

* One table per battlefield (:func:`best_split`) serves the exact side (best
  responses, dominance), as one 2-D integer matrix: int64, or ``object``
  (Python ints) when the entries may not fit.  :func:`best_split_numpy` runs
  in the narrowest of int16, int32 and int64 in which ``K * max|entry| <
  2**(bits - 4)`` (``2**12``, ``2**28``, ``2**60``), so no sum can overflow,
  and on ``object`` past that; the matrix is copied into int16, int32 or
  ``object``, and read without a copy in its own type.  That one guard alone
  picks the type, whatever the dtype: no option selects it.
* One shared table serves fictitious play (:func:`br_lex_numpy`,
  :func:`br_sampled_numpy`): one reply per call, to a plain value row or to
  one row of an :class:`FPStack` of ``m`` rows ``(m, N + 1)``, whose
  stages fill for all its rows on the first reply asked of any (``fp_run``
  stacks both players' rows of a two-sided round, and hands a plain row
  otherwise).  They run in
  the type of the rows the caller hands them, on the same ladder: an int32,
  int64 or ``object`` array keeps its type, and anything else runs in
  int64.  The caller keeps ``K * max|entry|`` below the type's guard
  (``fp_run`` picks int32, int64 or ``object`` per stretch of rounds) and,
  in a fixed-width type, the sampler's counts below ``2**63``: they are
  int64 on int32 and int64 rows and Python ints on ``object``
  (:func:`br_sampled_numpy`).

The FP kernels fill every stage, and :func:`best_split_numpy` every stage no
cheaper exact fill serves, with one block fill (:func:`_block_plan`): bids on
one axis, budgets on the last, one maximum over bids, in chunks of as many
bids as a scratch of ``ROW_BLOCK * (budget + 1)`` cells holds.  The FP
kernels fill all rows of a stack at once (a plain row is a stack of one),
stages ``(K - 1, m, N + 1)``, over the bids ``0 .. W`` with ``W`` the
largest row width (:func:`_fp_stages`): exact, since each row is flat from
its own width on, so a stage maximum over more bids is the same.  A chunk
takes as many bids of every row as the scratch holds: ``ROW_BLOCK`` bids of
each up to :data:`STACK_CELLS` cells in all, and from ``N = 255`` on
``ROW_BLOCK * (N + 1)`` cells in all, as one row takes; past the chunk that
holds the narrowest row's width, each row takes only the chunks up to its
own.  Their stages stay padded with the sentinel, so each stage's windows
read it where it was filled.  The walks back, the partition search, the
multinomial walk and the count DP run row by row, in each row's own call.
The three DPs share one cached workspace (:class:`_Workspace`), so none is
reentrant (the package starts no threads), and a stack whose stages another
fill has overwritten since fills again; each needs O(``ROW_BLOCK*N +
K*m*N``) cells.

The sampler builds the stage maxima as the lex kernel does, then lists each
row's optimal partitions: a depth-first search over partitions, largest part
first, that tests only the optimal first bids (every part of an optimal
partition is one, by field symmetry), priced per state, candidate and part
listed under the same cost model (next to :data:`ROW_BLOCK`).  While the list
costs less than a quarter of the price of a count DP over a one-row plan of
the row's own width, whatever stack it came in, it draws over the
orderings of the listed partitions in closed form, in Python ints; past that
the count DP counts the optimal completions of every state over the stages
already built, and only those counts are bound to ``2**63`` in int64.  Both
give the same integers branch by branch, so a draw never depends on which
ran.

Every DP marks unreachable states with one sentinel (:func:`_sentinel`), a
value below every reachable sum by more than the largest entry, so a sum
through it loses to every reachable one: ``-2**(bits - 3)`` in a fixed-width
type, and in ``object`` a Python int taken from the entries themselves.

All three DPs apply one width rule (:func:`flat_width`;
:func:`best_split_numpy` applies it to all its rows at once).  A
non-decreasing value row is flat from its first maximal entry ``w`` on: with
tie values in [0, 2] a belief row is flat above the largest bid seen.  A bid
above ``w`` scores no more than ``w`` and leaves less budget, and every
max-plus stage of such rows is non-decreasing too, so a stage maximum needs
only the bids ``x <= w``; the sampler adds the completions through bids above
``w`` (or above the last bid of the row's chunks in a stack) that tie, in
closed form, at the stages where any can tie (a flat step in the previous
stage below ``n - w``).  :func:`best_split_numpy` also fills each stage only
over the budgets its walk forward can reach, and the flat value above them.
Any row that decreases somewhere keeps its full width and full range.  The FP
walks back stay full width.

:func:`best_split_numpy` picks each stage's fill from the shape of the rows,
by the cheapest under one cost model (next to :data:`ROW_BLOCK`, priced per
integer type); every fill is exact, so the walk forward returns the same
lex-smallest argmax whichever ran.  Rows with non-increasing increments from
a stage on (uniform marginals with a tie value in [0, 2]) merge: the
max-plus product of concave rows takes the largest increments of both
(Bussieck et al. 1994), one sort per stage.  In a call at full range, a row
of few constant runs (``dominate``'s difference tables: at most five) takes
one window maximum of the next stage per run, read from a doubling table.
Every other stage (point-mass and parity rows, say) takes the block fill.

The tests check every DP here against plain Python-int loops kept in the
test oracles.  :class:`KernelSet` and :func:`get_kernels` remain only as the
hook through which a tracer counts the FP kernel calls, one per reply, by
the name the caller asks for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import Callable, Sequence

import numpy as np

# The fixed-width integer types, narrowest first, each with its guard: a DP
# runs in the type while every sum of K entries stays below 2**(bits - 4).
# Past int64's, best_split runs on object (Python ints).
_INT_TYPES = {
    np.dtype(np.int16): 1 << 12,
    np.dtype(np.int32): 1 << 28,
    np.dtype(np.int64): 1 << 60,
}
ROW_BLOCK = 64  # the block fill's scratch holds ROW_BLOCK * (budget + 1) cells
STACK_CELLS = 1 << 14  # a stack of FP rows takes ROW_BLOCK bids of each up to this (_Workspace)
# best_split_numpy fills each tail stage with the cheapest exact fill its rows
# admit, priced in picoseconds by the itemsize of the type it runs in (timed
# on a 2-vCPU x86 host, numpy 2.4; object takes int64's prices, which may
# cost it speed but never change a result):
#   block fill  CELL per pair of bid and budget it adds and maximizes, plus
#               2 calls and 5 per chunk of ROW_BLOCK * (budget + 1) cells
#   merge       5 calls and SORT per element and level of a sort of 2 * budget
#   run fill    bit_length(budget + 1) doubling levels at most, 8 more calls
#               and 5 per constant run
# CALL is one numpy call, whatever its length; CELL is fitted to the block
# fill's time over about 225 boxes per type, budgets 60 to 900.  A full-range
# stage of a 5-run row thus takes the run fill from a budget of 332 on in
# int16 (at 600, 43 calls against 180,901 cells in 5 chunks) and 196 in int64.
CALL = 1_000_000
CELL = {2: 450, 4: 850, 8: 1500}
SORT = {2: 500, 4: 500, 8: 1000}
# br_sampled_numpy lists the optimal partitions while that is priced below a
# quarter of the count DP it would replace (_count_cost), on the same host:
#   count DP  COUNT_STAGE calls per stage, COUNT_CHUNK per chunk of its plan
#             and COUNT_CELL per cell of a chunk (add, compare, masked sum;
#             by the row's itemsize, object at int64's), plus COUNT_FIELD
#             calls per field of its walk
#   search    NODE per state it pushes, per optimal first bid its Python
#             loop tests TEST_ROW with two fields left (both values read
#             from the value row's list) and TEST_STAGE through a stage
#             entry, and PART per part of each partition it lists, for the
#             listing and the walk over the list
# An int32 count DP at 120/6 costs about 110 us.  The count DP's prices were
# fitted to captured sampler calls at 24/6, 120/6 and 600/6 with up to 3,000
# optimal partitions.  Each test price is its loop timed alone on a captured
# 120/6 call, per candidate at the median width of its states on the calls
# below (3 candidates with two fields left, 2 through a stage entry), the
# state's own overhead included.  NODE and PART were then fitted, with those
# two fixed, to 3,280 captured calls of random runs at 24/6, 120/6 and 600/6
# (alpha 0, 1/3 and 1; 856 of them with 2 to 3,152 optimal partitions; 53%
# of their tests with two fields left), each timed against the count DP on
# the same call and scaled to its price.
COUNT_STAGE, COUNT_CHUNK, COUNT_FIELD = 8, 5, 6
COUNT_CELL = {4: 1500, 8: 2200}
NODE = 760_000
TEST_ROW = 60_000
TEST_STAGE = 220_000
PART = 300_000

BestReply = "tuple[int, tuple[int, ...]]"


def best_split(tables: np.ndarray, budget: int) -> BestReply:
    """Maximize ``sum_k tables[k][bid_k]`` over bid vectors summing to ``budget``.

    Returns the optimum and the lexicographically smallest optimal bid
    vector.  ``tables`` is one ``(K, >= budget + 1)`` integer matrix, int64
    or ``object`` (Python ints).  To minimize, pass negated tables and negate
    the optimum: the minimizers are exactly the maximizers of the negation,
    so the witness is the lexicographically smallest minimizer.  Runs
    :func:`best_split_numpy` in the narrowest of int16, int32 and int64 in
    which every sum of ``K`` entries stays below ``2**(bits - 4)`` in
    magnitude (``2**12``, ``2**28``, ``2**60``), else on ``object``.
    """
    bound = len(tables) * max(int(tables.max()), -int(tables.min()))
    dtype = next((d for d, guard in _INT_TYPES.items() if bound < guard), np.dtype(object))
    return best_split_numpy(tables[:, : budget + 1].astype(dtype, copy=False), budget)


def _sentinel(a: np.ndarray, fields: int) -> int:
    """The value of an unreachable state in a DP over ``fields`` fields of ``a``'s entries.

    Minus twice a bound on the magnitude of every sum of ``fields`` entries:
    the type's guard (:data:`_INT_TYPES`) in a fixed-width type, which the
    caller keeps, so the sentinel is ``-2**(bits - 3)``; ``fields *
    max|entry| + 1`` on ``object``.  A stage holds sums of fewer than
    ``fields`` entries, so an entry plus the sentinel loses to each of them,
    and in a fixed-width type nothing overflows.
    """
    if a.dtype != object:
        return -2 * _INT_TYPES[a.dtype]
    return -2 * (fields * max(a.max(), -a.min()) + 1)


# ---------------------------------------------------------------------------
# stage-wise max-plus products through strided windows
# ---------------------------------------------------------------------------


def flat_width(row: np.ndarray) -> "int | None":
    """The width rule: the largest bid a stage maximum over ``row`` needs.

    A non-decreasing row gets the index of its first maximal entry: a bid
    above it scores no more and leaves less budget, and every max-plus stage
    of non-decreasing rows is non-decreasing too.  A row that decreases
    somewhere gets ``None``: it, and every stage built from it, keeps its
    full width.
    """
    if np.count_nonzero(row[1:] < row[:-1]):
        return None
    return int(row.searchsorted(row[-1]))  # sorted: the first maximal entry


def best_split_numpy(tables: np.ndarray, budget: int) -> BestReply:
    """:func:`best_split` in the matrix's integer type: fixed-width or ``object``.

    In a fixed-width type the caller keeps every sum of K entries below
    ``2**(bits - 4)`` in magnitude (:data:`_INT_TYPES`), so no sum
    overflows; in every type a sum through the sentinel (:func:`_sentinel`)
    loses to every reachable one.  Tail stage ``j`` is ``tail[j][r] =
    max_{x <= r} row[x] + tail[j + 1][r - x]``.  Each
    stage is filled exactly, by the cheapest fill its rows admit under the
    cost model next to :data:`ROW_BLOCK`, so the walk forward reads the same
    tables whichever fill ran:

    * The block fill (:func:`_block_plan`) adds the row's bids to the next
      stage, bids on the first axis and budgets on the second, and takes one
      maximum over bids.  When every row is non-decreasing, every tail stage
      is too, and no bid above the width ``w_j`` (the first maximal entry)
      beats ``w_j``: field ``j`` reads only the bids ``x <= w_j``, the walk
      forward only the bids ``x <= min(r, w_j)``, so it reaches stage ``j``
      with at least ``budget - sum(w[:j])`` units left.  Stage ``j`` then
      fills only ``r`` from that many up to ``sum(w[j:])``; above, every
      field can sit at its maximum, so the stage is flat there.  A row that
      decreases somewhere gives every field the full width and every stage
      the full range.
    * The merge (:func:`_merge_stage`) serves the stages whose rows, and all
      rows after them, have non-increasing increments.
    * The run fill (:func:`_runs_stage`) serves a stage of a call that runs
      at full range (some row decreases) when the stage's row has few
      constant runs, like ``dominate``'s difference tables.
    """
    n = budget
    t = tables[:, : n + 1]
    k = len(t)
    cell, sort = CELL[t.itemsize], SORT[t.itemsize]
    ws = _workspace(n, t.dtype, ROW_BLOCK)
    cap = ws.block_cells  # the block fill's scratch, in cells
    scratch = ws.scratch[:cap]
    neg = _sentinel(t, k)
    if t.dtype == object:
        ws.pad[:n] = neg
    steps = t[:, 1:] - t[:, :-1]  # no overflow: every |entry| < 2**(bits - 5)
    ranged = not np.count_nonzero(steps < 0)
    if ranged:
        widths = (t == t[:, -1:]).argmax(axis=1).tolist()  # the first maximal entries
        after = list(accumulate(widths[::-1]))[::-1]  # after[j] = sum(widths[j:])
        # stage j: from the fewest units the walk forward reaches it with, up
        # to the budget above which it is flat
        spans = [(max(0, n - after[0] + a), min(n, a)) for a in after]
        flat = np.cumsum(t[::-1, -1])[::-1]  # flat[j]: every field j.. at its maximum
    else:  # the stages after a decreasing row may decrease too
        widths = [n] * k
        spans = [(0, n)] * k
    merged = _concave_from(steps) if k > 2 else k  # stages merged..k-2 may merge
    merge_cost = (5 * CALL + sort * n * (2 * n).bit_length()) * (k - 1 - merged)
    if merged < k - 1 and merge_cost >= sum(
        _block_cost(spans, widths, j, cap, cell) for j in range(merged, k - 1)
    ):
        merged = k
    tail = np.full((k, n + 1), neg, dtype=t.dtype)  # below a stage's range: never read
    tail[k - 1] = t[k - 1]
    incs = steps[k - 1][::-1]  # while merging: the increments of tail[j + 1], ascending
    for j in range(k - 2, 0, -1):
        if j >= merged:
            incs = _merge_stage(t[j, 0] + tail[j + 1, 0], steps[j], incs, tail[j])
            continue
        if not ranged:  # a full-range stage: the run fill may be cheaper
            runs = 1 + np.count_nonzero(steps[j])
            calls = (n + 1).bit_length() + 8 + 5 * runs
            if calls * CALL < _block_cost(spans, widths, j, cap, cell):
                _runs_stage(t[j], steps[j], tail[j + 1], tail[j])
                continue
        lo, hi = spans[j]
        if lo <= hi:  # else the span is empty: the stage is flat from lo on
            ws.pad[n:] = tail[j + 1]
            first = max(0, lo - spans[j + 1][1])  # see _block_cost
            plan = _block_plan(t[j, : widths[j] + 1], ws.window, lo, hi, first, scratch)
            _block_fill(plan, tail[j, lo : hi + 1])
        if hi < n:
            tail[j, hi + 1 :] = flat[j]
    bids = []
    r = n
    for j in range(k - 1):
        c = min(r, widths[j])
        x = int((t[j, : c + 1] + tail[j + 1, r - c : r + 1][::-1]).argmax())  # the first maximizer
        bids.append(x)
        r -= x
    bids.append(r)
    return int(t[np.arange(k), bids].sum()), tuple(bids)


def _block_plan(rows, windows, lo, hi, first, scratch) -> list:
    """The chunks of a block fill of the budgets ``lo..hi`` over the bids ``first..``.

    ``rows`` is one row or a stack of them, bids on its last axis, and
    ``windows`` one window box per row (:func:`_windows`).  The bids run
    from ``first <= lo`` to the last of ``rows``, at most ``hi``; a chunk
    takes as many as ``scratch`` holds rows of its budgets for every row of
    the stack, from ``lo`` or its first bid, below which each of them reads
    the sentinel (or a zero count).  A chunk is ``(off, head, win, sums)``:
    its first budget less ``lo``, its bids as a column per row, its windows
    and its scratch, all views: a plan serves every stage that refills the
    pads.
    """
    plan = []
    x0, end = first, rows.shape[-1]
    cells = len(scratch) // (rows.size // end)  # per row of the stack
    while x0 < end:
        r0 = lo if lo > x0 else x0
        x1 = min(end, x0 + cells // (hi + 1 - r0))
        shape = rows.shape[:-1] + (x1 - x0, hi + 1 - r0)
        sums = scratch[: rows.size // end * shape[-2] * shape[-1]].reshape(shape)
        plan.append((r0 - lo, rows[..., x0:x1, None], windows[..., x0:x1, r0 : hi + 1], sums))
        x0 = x1
    return plan


def _block_fill(plan, out, stop=None) -> None:
    """``out[..., r - lo] = max_x rows[..., x] + windows[..., x, r]`` over a plan's span (:func:`_block_plan`).

    Over its first ``stop`` chunks, or all of them.
    """
    _, head, win, sums = plan[0]
    np.add(head, win, out=sums)
    np.maximum.reduce(sums, axis=-2, out=out)
    if len(plan) > 1 and stop != 1:
        _block_max(plan[1:stop], out)


def _block_max(chunks, out) -> None:
    """Raise ``out`` to the maxima over the bids of further chunks of a plan (:func:`_block_fill`)."""
    for off, head, win, sums in chunks:
        np.add(head, win, out=sums)
        seg = out[..., off:]
        np.maximum(seg, np.maximum.reduce(sums, axis=-2), out=seg)


def _block_cost(spans, widths, j: int, cap: int, cell: int) -> int:
    """Stage ``j``'s block fill with ``cap`` cells of scratch, in picoseconds.

    It fills the budgets ``lo..hi`` of ``spans[j]`` over the bids
    ``first..widths[j]``: the width is at most ``hi``, the sum of the widths
    from ``j`` on or the budget.  With ``hi'`` the top of stage ``j + 1``,
    above which it is flat, a bid ``x`` below ``first = lo - hi'`` leaves
    ``r - x > hi'`` at every budget ``r`` of the span, where bid ``r - hi'``
    (no lower on the row, and at most the width) scores at least as much.
    """
    lo, hi = spans[j]
    if lo > hi:  # no budgets: the stage is flat
        return 0
    first, last = max(0, lo - spans[j + 1][1]), widths[j]
    over = max(0, last - lo)  # bids above lo skip the budgets below them
    cells = (last + 1 - first) * (hi + 1 - lo) - over * (over + 1) // 2
    return cells * cell + CALL * (2 + 5 * -(-cells // cap))


def _concave_from(steps: np.ndarray) -> int:
    """The first stage ``j >= 1`` whose row and every row after it have non-increasing increments.

    ``K`` when the last row bends up somewhere.
    """
    if np.count_nonzero(steps[-1, 1:] > steps[-1, :-1]):  # most calls stop here
        return len(steps)
    bends = np.flatnonzero(steps[1:-1, 1:] > steps[1:-1, :-1])  # flat: rows 1..K-2
    return int(bends[-1]) // (steps.shape[1] - 1) + 2 if len(bends) else 1


def _merge_stage(first, steps: np.ndarray, incs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` from a concave row and the concave stage after it.

    ``first`` is the sum of their first entries, ``steps`` the row's ``n``
    increments, non-increasing, and ``incs`` the stage's ``n`` increments,
    ascending.  The max-plus product of concave rows is concave and its
    increments are the ``n`` largest of the ``2 * n``, best first.  Returns
    them ascending.
    """
    n = len(steps)
    incs = np.sort(np.concatenate((steps[::-1], incs)))[n:]
    out[0] = first
    out[1:] = incs[::-1]
    np.cumsum(out, out=out)
    return incs


def _runs_stage(row: np.ndarray, steps: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
    """``out[r] = max_{x <= r} row[x] + prev[r - x]`` for a row of few constant runs.

    ``steps`` holds the row's increments.  A run on the bids ``[a, e)``
    offers ``row[a]`` plus the maximum of ``prev`` over
    ``[max(0, r - e + 1), r - a]``: a prefix maximum while ``r - a`` is below
    the run's length, a window of that length above, read as the larger of
    two overlapping windows of a doubling table built once per stage.
    """
    n = len(row) - 1
    prefix = np.maximum.accumulate(prev)
    levels = [prev]  # levels[l][i] = max(prev[i : i + 2**l])
    a = 0
    for e in np.flatnonzero(steps).tolist() + [n]:
        e += 1
        length, m = e - a, n + 1 - a  # the run's bids, the budgets it reaches
        value = row[a]
        seg = out[a:]
        inside = min(length, m)
        if a == 0:  # the first run reaches every budget
            np.add(prefix[:inside], value, out=seg[:inside])
        else:
            np.maximum(seg[:inside], prefix[:inside] + value, out=seg[:inside])
        if inside == m:  # the last run
            break
        if length == 1:
            win = prev[1:m] + value
        else:
            lv = length.bit_length() - 1
            while len(levels) <= lv:
                half = 1 << (len(levels) - 1)
                levels.append(np.maximum(levels[-1][:-half], levels[-1][half:]))
            top, span = levels[lv], 1 << lv
            win = np.maximum(top[1 : m - length + 1], top[length - span + 1 : m - span + 1])
            win += value
        if a == 0:
            seg[inside:] = win
        else:
            np.maximum(seg[inside:], win, out=seg[inside:])
        a = e


def _windows(pads: np.ndarray, n: int) -> np.ndarray:
    """``windows[..., x, r]``: ``pads[..., n - x + r]``, one ``(n + 1, n + 1)`` box per padded row.

    A plain strided view of a contiguous ``pads``: sliding_window_view
    raises RSS.
    """
    step = pads.itemsize
    return np.ndarray(pads.shape[:-1] + (n + 1, n + 1), pads.dtype, buffer=pads,
                      offset=n * step, strides=pads.strides[:-1] + (-step, step))


class _Workspace:
    """The buffers of one budget ``n``, one type and one block size, for every DP.

    A padded row holds ``n`` cells below a row of ``n + 1``, and its windows
    (:func:`_windows`) read it so: ``window[x, r]`` is the row at ``r - x``
    for ``x <= r`` and the pad above the diagonal.  :func:`best_split_numpy`
    copies each stage into ``pad[n:]`` and reads ``window``.  The FP kernels
    keep their stages padded, ``padded[c, i]`` for stage ``c`` of row ``i``
    of a stack, so a stage's windows read it where it was filled.  In a
    fixed-width type every pad holds the type's sentinel for good; on
    ``object`` each call writes its own.  The sampler's count DP keeps the
    counts of one row padded with zeros in ``counts``, read the same way:
    ``count_dtype``, int64 in every fixed-width type and ``object`` on
    ``object``.

    A block fill adds into ``scratch`` and the count DP compares into
    ``mask``: ``block_cells = min(block, n + 1) * (n + 1)`` cells for
    :func:`best_split_numpy` and one FP row, and :meth:`cells` for a stack.
    ``plans`` keeps the FP block plans of up to two widths and stack
    heights: a run alternates replies and trace rows.  ``fills`` counts the
    FP fills, each of which overwrites the stages of the one before
    (:class:`FPStack`), and ``search_budgets`` keeps the sampler's search
    budget per row width and field count (:func:`_search_budget`).  The
    first FP call builds ``padded`` and ``counts`` (:meth:`fit`), and a
    deeper or taller stack grows them and the scratch in place: the
    workspace stays, and so does every buffer a smaller stack reads.
    """

    def __init__(self, n: int, dtype: np.dtype, block: int) -> None:
        self.n, self.dtype = n, dtype
        self.count_dtype = np.dtype(object if dtype == object else np.int64)
        self.pad = self._padded()
        self.window = _windows(self.pad, n)
        self.block_cells = cells = min(block, n + 1) * (n + 1)
        self.scratch, self.mask = np.empty(cells, dtype), np.empty(cells, dtype=bool)
        self.padded = self.counts = None  # built by the first FP call
        self.plans, self.fills, self.search_budgets = {}, 0, {}

    def _padded(self, *shape: int) -> np.ndarray:
        """Padded rows of ``shape``, the pads at the sentinel in a fixed-width type."""
        n = self.n
        rows = np.zeros(shape + (2 * n + 1,), dtype=self.dtype)
        if self.dtype != object:
            rows[..., :n] = _sentinel(rows, 0)
        return rows

    def cells(self, rows: int) -> int:
        """The scratch of a stack of ``rows``: ``block`` bids of each, up to :data:`STACK_CELLS` in all.

        Never less than one row takes, ``block_cells``, nor than one bid of
        each row.  So both players' rows at 120/6 fill each stage in the
        chunks one row takes (two rows of 7,744 cells), and from ``n = 255``
        on, where ``block_cells`` reaches ``STACK_CELLS``, a stack adds no
        scratch: ``ROW_BLOCK * (n + 1)`` cells in all.
        """
        return max(self.block_cells, min(rows * self.block_cells, STACK_CELLS),
                   rows * (self.n + 1))

    def fit(self, depth: int, rows: int) -> None:
        """Grow the stages and counts to ``depth`` stages of ``rows`` rows, and the scratch to the stack."""
        cells = self.cells(rows)
        if len(self.scratch) < cells:
            self.scratch, self.mask = np.empty(cells, self.dtype), np.empty(cells, dtype=bool)
            self.plans = {}
        have_depth, have_rows, _ = (0, 0, 0) if self.padded is None else self.padded.shape
        if have_depth < depth or have_rows < rows:
            self.padded = self._padded(max(have_depth, depth), max(have_rows, rows))
            self.counts = np.zeros((len(self.padded), 2 * self.n + 1), dtype=self.count_dtype)
            self.plans = {}


# the types the FP kernels run in, as the row they are handed
_FP_TYPES = (np.dtype(np.int32), np.dtype(np.int64), np.dtype(object))
# the one cached workspace, keyed on the block size too: a call passes ROW_BLOCK
_workspace = lru_cache(maxsize=1)(_Workspace)


def _fp_stages(v: np.ndarray, budget: int, fields: int):
    """``(v, ws, w, stages, planned, cand)``: the start of both FP kernels, for a stack of rows.

    ``v`` is a stack of ``m`` value rows ``(m, budget + 1)`` in the type the
    kernels run in (:class:`FPStack`); an ``object`` stack's sentinel, which
    grows with its values, goes into the pads on every call.  Returns ``v``,
    its workspace, ``w`` the width of each row, ``stages`` the stages ``0 ..
    fields - 2`` of every row the walks back read, ``(fields - 1, m, budget
    + 1)`` (``stages[c, i, r]``: the best value of ``c + 1`` fields of row
    ``i`` spending ``r``), the cached plans that filled them
    (:class:`_FPPlan`), and the first field's candidates:
    ``cand[i, x] = v[i, x] + stages[fields - 2, i, budget - x]``, the best
    value of the full budget with a first bid ``x`` (``None`` with one
    field, whose one bid is the budget).

    Every stage of the stack takes one block plan over the bids ``0 .. W``,
    ``W = max(w)``, in chunks of as many bids of every row as the scratch
    holds (:meth:`_Workspace.cells`).  All rows take the chunks up to the
    narrowest row's width together, and each wider row the rest up to its
    own width alone (:meth:`_FPPlan.reach`); where one chunk holds every bid
    (at 120/6, say) that is one fill of the whole stack.  Either is exact: a
    row of width ``w_i < W`` is flat from ``w_i`` on, so its bids ``w_i < x
    <= W`` score ``v[i, w_i]`` and leave less budget, and its stage maxima
    over them are its maxima over ``x <= w_i``.  The plans are cached per
    ``W``, stack height and depth.  Each call counts one more fill of the
    workspace (``ws.fills``), which overwrites the stages of the fill before.
    """
    m, depth = len(v), max(fields - 1, 1)
    ws = _workspace(budget, v.dtype, ROW_BLOCK)
    ws.fills += 1
    w = [budget if x is None else x for x in map(flat_width, v)]
    top = max(w)
    planned = ws.plans.get((top, m, depth))
    if planned is None:  # full range over the bids x <= W of the rows in stages[0]
        if len(ws.plans) > 1:
            ws.plans.clear()
        planned = _FPPlan(ws, top, m, depth)
        ws.plans[top, m, depth] = planned
    stages = planned.stages
    if v.dtype == object:
        ws.padded[:depth, :m, :budget] = _sentinel(v, fields)
    stages[0] = v
    # every row takes the chunks up to the narrowest row's width, and each
    # wider row on its own the rest up to its width: with one chunk, none
    shared, wider = len(planned.bounds) - 1, ()
    if shared > 1:
        shared = planned.reach(min(w))
        wider = [(i, planned.reach(x)) for i, x in enumerate(w) if x >= planned.bounds[shared]]
    for plan, stage in planned.fills:
        _block_fill(plan, stage, shared)
        for i, end in wider:
            _block_max([(off, head[i], win[i], sums[i]) for off, head, win, sums in plan[shared:end]],
                       stage[i])
    cand = v + planned.last if fields > 1 else None
    return v, ws, w, stages, planned, cand


class FPStack:
    """Value rows ``(m, budget + 1)`` whose FP stages fill in one pass, for one reply per row.

    :meth:`rows` hands each row as an :class:`FPRow`, which
    :func:`br_lex_numpy` and :func:`br_sampled_numpy` take in place of a
    plain value row: the first reply asked of any row fills the stages of
    all of them (:func:`_fp_stages`), and the replies of the others read
    them.  ``fp_run`` hands both players' rows of a two-sided round as one
    stack.  The stages live in the shared workspace, so a fill of another
    stack in between is seen (``ws.fills``) and this one fills again.
    ``values`` is the stack in the type the kernels run in (:func:`_fp_rows`).
    """

    __slots__ = ("values", "budget", "fields", "_filled", "_fill")

    def __init__(self, values, budget: int, fields: int) -> None:
        self.values = _fp_rows(values, budget)
        self.budget, self.fields = budget, fields
        self._filled, self._fill = None, 0

    def rows(self) -> "list[FPRow]":
        """One :class:`FPRow` per row, in order."""
        return [FPRow(self, i) for i in range(len(self.values))]

    def filled(self, budget: int, fields: int):
        """The stack's :func:`_fp_stages`, filled once, or again if another fill came between."""
        if budget != self.budget or fields != self.fields:
            raise ValueError(
                f"a stack built for budget {self.budget} and {self.fields} fields"
                f" asked for budget {budget} and {fields} fields"
            )
        filled = self._filled
        if filled is None or filled[1].fills != self._fill:
            filled = self._filled = _fp_stages(self.values, budget, fields)
            self._fill = filled[1].fills
        return filled


class FPRow:
    """Row ``index`` of an :class:`FPStack`: one value row to the FP kernels, numpy and ``len``.

    The kernels read the stages its stack filled for all its rows; numpy
    (``np.asarray``) and ``len`` read the row, in the stack's type, as they
    read a plain row (a tracer comparing the rows of successive calls, say).
    """

    __slots__ = ("stack", "index")

    def __init__(self, stack: FPStack, index: int) -> None:
        self.stack, self.index = stack, index

    def __len__(self) -> int:
        return self.stack.values.shape[1]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.stack.values[self.index], dtype=dtype, copy=copy)


def _fp_rows(values, budget: int) -> np.ndarray:
    """A stack of value rows in the type the FP kernels run in, cut to ``budget + 1`` bids.

    An int32, int64 or ``object`` array keeps its type; anything else runs
    in int64.
    """
    if not (isinstance(values, np.ndarray) and values.dtype in _FP_TYPES):
        values = np.asarray(values, dtype=np.int64)
    return values[:, : budget + 1]


def _filled(values, budget: int, fields: int):
    """``(stages, i)``: :func:`_fp_stages` of the stack ``values`` is row ``i`` of.

    An :class:`FPRow` reads its stack's; a plain row fills as a stack of one.
    """
    if isinstance(values, FPRow):
        return values.stack.filled(budget, fields), values.index
    stack = values[None] if isinstance(values, np.ndarray) else [values]
    return _fp_stages(_fp_rows(stack, budget), budget, fields), 0


class _FPPlan:
    """The stage views and block plans of one width, stack height and depth (:func:`_fp_stages`).

    ``stages`` is the view of ``depth`` padded stages of ``rows`` rows,
    ``fills`` pairs each stage after the first with the block plan that
    fills it from the stage before, and ``last`` is the last stage with its
    budgets reversed.  One plan over the bids ``0..top`` and the windows of
    every stage but the last, then one view of it per stage.  Built with the
    workspace grown to fit; the count DP's chunks of a row are built by its
    first count DP (:meth:`count_chunks`).
    """

    __slots__ = ("stages", "fills", "last", "bounds", "counting")

    def __init__(self, ws: _Workspace, top: int, rows: int, depth: int) -> None:
        n = ws.n
        ws.fit(depth, rows)
        self.stages = stages = ws.padded[:depth, :rows, n:]
        self.fills, firsts = [], [0]
        if depth > 1:
            windows = _windows(ws.padded, n)[: depth - 1, :rows]
            plan = _block_plan(stages[0, :, : top + 1], windows, 0, n, 0,
                               ws.scratch[: ws.cells(rows)])
            self.fills = [([(off, head, win[c], sums) for off, head, win, sums in plan],
                           stages[c + 1]) for c in range(depth - 1)]
            # a full-range plan from bid 0: a chunk's first bid is its offset
            firsts = [off for off, *_ in plan]
        self.bounds = firsts + [top + 1]  # the chunks' first bids, then the end
        self.last = stages[-1, :, ::-1]
        self.counting = {}

    def reach(self, w: int) -> int:
        """How many chunks a row of width ``w`` needs: those from a bid ``x <= w``.

        The last of them may take bids above ``w``, which is exact as the
        stack's ``W`` is.
        """
        return bisect_right(self.bounds, w)

    def count_chunks(self, ws: _Workspace, i: int, w: int):
        """``(chunks, last)``: row ``i``'s chunks for its count DP, up to its width ``w``.

        ``chunks[c - 1]`` holds the chunks of stage ``c``'s plan from a bid
        ``x <= w`` (:meth:`reach`) for row ``i`` alone, each with a mask and
        the windows of ``ws.counts[c - 1]``, the count DP's
        (:func:`_completion_counts`); ``last >= w`` is their last bid.  Cached
        per row and chunk count.
        """
        end = self.reach(w)
        counting = self.counting.get((i, end))
        if counting is None:
            count_windows = _windows(ws.counts, ws.n)
            chunks = [
                [(off, head[i], win[i], sums[i], ws.mask[: sums[i].size].reshape(sums[i].shape),
                  count_windows[c, off : off + head.shape[1], off:])
                 for off, head, win, sums in plan[:end]]
                for c, (plan, _) in enumerate(self.fills)
            ]
            counting = self.counting[i, end] = chunks, self.bounds[end] - 1
        return counting


def br_lex_numpy(values, budget: int, fields: int) -> BestReply:
    """:func:`best_split` on ``fields`` copies of one value row.

    ``values`` is a plain row, or a row of an :class:`FPStack`, whose stages
    fill with its other rows' in one pass (:func:`_fp_stages`).  The optimum
    is the first field's best candidate; the row walks back on its own.
    """
    (v, _, _, stages, _, cand), i = _filled(values, budget, fields)
    row = v[i]
    if cand is None:
        return int(row[budget]), (budget,)
    x = int(cand[i].argmax())
    total, bids, r = int(cand[i, x]), [x], budget - x
    for c in range(fields - 2, 0, -1):
        x = int((row[: r + 1] + stages[c - 1, i, r::-1]).argmax())
        bids.append(x)
        r -= x
    bids.append(r)
    return total, tuple(bids)


def br_sampled_numpy(values, budget: int, fields: int, uniforms) -> BestReply:
    """A uniform draw over every optimal bid vector, driven by ``uniforms``.

    Walks the fields in order, choosing each bid with probability
    proportional to the optimal completions it leaves open, so the draw is
    uniform over the full argmax set (up to the float resolution of the
    uniforms): ``u = uniforms[i]`` picks bid ``i`` as the first, in
    ascending order, whose running sum of completions exceeds
    ``min(int(u * total), total - 1)``.  ``values`` is a plain row or a row
    of an :class:`FPStack`, as :func:`br_lex_numpy` takes.

    It builds the stage maxima as :func:`br_lex_numpy` does, in the row's
    type (:func:`_fp_stages`), then lists the row's optimal partitions
    (:func:`_optimal_partitions`): every optimal bid vector orders one of
    them, and every ordering of one is optimal.  The walk then draws from
    their orderings in closed form, in Python ints
    (:func:`_multinomial_walk`): the same numbers, branch by branch, as the
    counts.  Once listing costs more than a quarter of the count DP's price
    (:func:`_count_cost`) over a one-row plan of the row's own width, the
    search gives up and the walk reads the counts of
    :func:`_completion_counts` instead.

    The counts of stage ``c`` are at most the ``C(r + c, c)`` bid vectors of
    ``c + 1`` fields spending ``r``.  A prefix sum of them is at most
    ``C(n + c, c)``, and a partial sum of the walk back at most a count, so
    nothing exceeds :func:`~blotto_lab.space.count_ordered`, ``C(budget +
    fields - 1, fields - 1)``.  On a fixed-width row the counts are int64,
    and the caller keeps that below ``2**63``, or they wrap and the draw
    stops being uniform; on an ``object`` row they are Python ints.
    """
    n = budget
    (v, ws, w, stages, planned, cand), i = _filled(values, n, fields)
    if cand is None:
        return int(v[i, n]), (n,)
    top = int(np.maximum.reduce(cand[i]))
    partitions = _optimal_partitions(stages[:, i], cand[i], top, _search_budget(ws, w[i], fields))
    if partitions is None:
        chunks, last = planned.count_chunks(ws, i, w[i])
        bids = _count_walk(v[i], ws, last, stages[:, i], chunks, cand[i], top, uniforms)
    else:
        bids = _multinomial_walk(partitions, uniforms)
    return top, bids


def _search_budget(ws: _Workspace, w: int, fields: int) -> int:
    """The partition search's budget for a row of width ``w``: a quarter of its count DP's price.

    The price of the count DP over the plan :func:`_block_plan` builds for
    one row of width ``w`` in ``ws``'s one-row scratch, whatever stack the
    row came in; built once per width and field count, and kept in the
    workspace (the prices are constants).  A tie set that outgrows it (408
    partitions at round 2 of every 120/6 run) then costs little more than
    the count DP alone, while lists of a few partitions still fit.
    """
    key = w, fields
    budget = ws.search_budgets.get(key)
    if budget is None:
        n = ws.n
        plan = _block_plan(ws.pad[n : n + w + 1], ws.window, 0, n, 0, ws.scratch[: ws.block_cells])
        cells = sum(sums.size for *_, sums in plan)
        budget = ws.search_budgets[key] = _count_cost(len(plan), cells, fields, ws.dtype.itemsize) // 4
    return budget


def _count_cost(chunks: int, cells: int, fields: int, itemsize: int) -> int:
    """The price of the count DP and its walk over a plan of ``chunks`` and ``cells``, in picoseconds.

    The prices are those next to :data:`ROW_BLOCK`, by the row's itemsize.
    """
    calls = (fields - 2) * (COUNT_STAGE + COUNT_CHUNK * chunks) + COUNT_FIELD * (fields - 1)
    return calls * CALL + (fields - 2) * cells * COUNT_CELL[itemsize]


def _optimal_partitions(stages: np.ndarray, cand: np.ndarray, top, budget: int):
    """Every partition some optimal bid vector orders, or ``None`` past ``budget``.

    ``stages[c][r]`` is the best value of ``c + 1`` fields spending ``r``
    and ``cand[x]`` the best value of the full budget with a first bid ``x``
    (``top`` the largest).  A depth-first search over partitions, largest
    part first: at a state of ``c + 1`` fields, ``r`` units and parts at most
    ``cap``, a largest part ``x`` from ``ceil(r / (c + 1))`` to ``min(r,
    cap)`` leads to an optimal partition only if ``v[x] + stages[c - 1][r -
    x] == stages[c][r]``, and every optimal partition passes that test at
    each of its parts.

    Only the optimal first bids ``D`` (the ``x`` with ``cand[x] == top``)
    are tested, found in each state's range by bisecting them.  That is exact
    by field symmetry: every ordering of an optimal partition is an optimal
    bid vector, so each of its parts is the first bid of one, and no bid
    outside ``D`` is a part of any.  On captured 120/6 calls ``D`` holds a
    median of 3 of the 121 bids, and a one-partition search tests a median of
    6 to 8 candidates in 4 or 5 states.  A state reads one stage entry per
    candidate; with two fields left the last part is the rest, read from
    ``v``.

    Returns the partitions, parts descending, or ``None`` once the states
    pushed (:data:`NODE` each), the candidates tested (:data:`TEST_ROW` each
    with two fields left, :data:`TEST_STAGE` each through a stage entry) and
    the parts listed (:data:`PART` each) cost more than ``budget``
    picoseconds.  An explicit stack, not recursion: a call leaves no
    reference cycle for the collector to find.
    """
    fields, n = len(stages) + 1, len(cand) - 1
    optimal = (cand == top).nonzero()[0].tolist()  # ascending
    firsts = optimal[bisect_left(optimal, -(-n // fields)) :]  # popped largest first
    if fields == 2:  # x >= n - x: each first bid is the largest part of one partition
        return [(x, n - x) for x in firsts] if len(firsts) * 2 * PART <= budget else None
    v = stages[0].tolist()
    found = []
    # a state carries f = stages[c][r], the value its parts must reach; it is
    # priced when pushed, so a wide level gives up before its states expand
    stack = [(fields - 2, n - x, x, (x,), int(top) - v[x]) for x in firsts]
    spent = len(stack) * NODE
    while stack:
        c, r, cap, parts, f = stack.pop()
        # the optimal first bids x from ceil(r / (c + 1)) to min(r, cap):
        # x >= ceil(r / (c + 1)) leaves r - x <= c * x, so the c fields after
        # it can always take parts of at most x
        i = bisect_left(optimal, -(-r // (c + 1)))
        j = bisect_right(optimal, r if r < cap else cap, i)
        if c == 1:  # two fields left: the last part is r - x <= x
            listed = len(found)
            for x in optimal[i:j]:
                if v[x] + v[r - x] == f:
                    found.append(parts + (x, r - x))
            spent += (j - i) * TEST_ROW + (len(found) - listed) * fields * PART
        elif i < j:
            pending = len(stack)
            prev = stages[c - 1].item
            for x in optimal[i:j]:
                b = prev(r - x)
                if v[x] + b == f:
                    stack.append((c - 1, r - x, x, parts + (x,), b))
            spent += (j - i) * TEST_STAGE + (len(stack) - pending) * NODE
        if spent > budget:
            return None
    return found


def _multinomial_walk(
    partitions: "list[tuple[int, ...]]", uniforms: Sequence[float]
) -> "tuple[int, ...]":
    """The draw of :func:`br_sampled_numpy` over the orderings of the optimal partitions.

    With ``s`` fields left, partition ``i`` has ``t_i`` orderings left and
    ``m_{i,x}`` parts equal to ``x``: a first bid ``x`` leaves ``sum_i t_i *
    m_{i,x} / s`` of the ``sum_i t_i`` optimal completions open, the
    numbers the count DP yields.  Exact in Python ints, whatever their size.
    An array of uniforms is read once as Python floats, whose products with
    a count round as the array's float64 entries' do.
    """
    if isinstance(uniforms, np.ndarray):
        uniforms = uniforms.tolist()
    live = []  # (t_i, m_i): the orderings left of each partition, its parts by size
    for parts in partitions:
        left = {}
        for x in parts:
            left[x] = left.get(x, 0) + 1
        total = factorial(len(parts))
        for m in left.values():
            total //= factorial(m)
        live.append((total, left))
    fields = len(partitions[0])
    bids = []
    while len(live) > 1:
        s = fields - len(bids)
        total, branches = 0, {}
        for t, left in live:
            total += t
            for x, m in left.items():
                branches[x] = branches.get(x, 0) + t * m
        want = min(int(uniforms[len(bids)] * total), total - 1)
        acc = 0
        for x in sorted(branches):
            acc += branches[x] // s
            if acc > want:
                break
        bids.append(x)
        live = [(t * left[x] // s, left) for t, left in live if x in left]
        for _, left in live:
            left[x] -= 1
            if not left[x]:
                del left[x]
    # one partition left: its own orderings, branch by branch, until one
    # ordering is left (t == 1), and so one size, which every uniform picks
    (total, left), = live
    order = sorted(left)
    i, s = len(bids), fields - len(bids)
    while total > 1:
        want = min(int(uniforms[i] * total), total - 1)
        acc = 0
        for x in order:
            branch = total * left[x] // s
            acc += branch
            if acc > want:
                break
        bids.append(x)
        total = branch
        left[x] -= 1
        if not left[x]:
            order.remove(x)
        i += 1
        s -= 1
    bids += order * s
    return tuple(bids)


def _completion_counts(v: np.ndarray, ws: _Workspace, w: int, stages: np.ndarray, chunks):
    """``counts[c][r]``: the optimal bid vectors of ``c + 1`` fields of one row spending ``r``.

    ``v`` and ``stages`` are one row of a stack, ``chunks[c - 1]`` that
    row's chunks of the stack's block plan for stage ``c``, over the bids
    ``0..w`` (:meth:`_FPPlan.count_chunks`), which may reach above the
    row's own width.
    ``ws.count_dtype``: int64 on a fixed-width row, Python ints on
    ``object``.  Runs the stages' block plan again: per chunk the add, a
    comparison with the stage into the mask and one masked sum over the
    windows of the previous counts, padded with zeros in ``ws.counts`` as
    the stages are with the sentinel.  On real 120/6 chunks that sum takes
    about 1.2 times a plain add in int64, and less than the counts times the
    mask and a plain sum (1.6 times faster in int64, 12 times on
    ``object``).  The closed-form count of ties through bids above ``w``
    runs only when the previous stage has a flat step ``prev[t - 1] ==
    prev[t]`` for some ``t`` in ``1 .. n - w``: without one, every run of
    equal entries it would sum is empty.  The counts stay in ``ws.counts``
    until the next count DP.
    """
    n = len(v) - 1
    counts = ws.counts[: len(stages), n:]
    counts[0] = 1
    prefix = np.zeros(n + 2, dtype=counts.dtype)
    for c in range(1, len(stages)):
        prev, stage, count = stages[c - 1], stages[c], counts[c]
        # zero counts pad above the diagonal; on object a masked sum needs a start
        for off, head, win, sums, mask, count_win in chunks[c - 1]:
            np.add(head, win, out=sums)
            np.equal(sums, stage[off:], out=mask)
            if off:  # a later chunk adds to the budgets from its first bid
                count[off:] += np.add.reduce(count_win, axis=0, where=mask, initial=0)
            else:
                np.add.reduce(count_win, axis=0, where=mask, out=count, initial=0)
        if w < n and np.count_nonzero(prev[: n - w] == prev[1 : n - w + 1]):
            # The row is flat from w on.  A bid x > w at r scores v[w] and
            # leaves r - x < t = r - w, so it ties only where v[w] + prev[t]
            # is optimal and prev is flat on [r - x, t]: it adds the counts
            # over the run [L, t - 1] of the entries of prev equal to
            # prev[t].  Without a flat step prev[t - 1] == prev[t] every
            # such run is empty.
            prev_t = prev[1 : n - w + 1]  # t = 1 .. n - w for r = w + 1 .. n
            run_start = prev.searchsorted(prev_t, "left")  # L
            np.add.accumulate(counts[c - 1], out=prefix[1:])
            ties = stage[w + 1 :] == prev_t + v[w]
            np.add(count[w + 1 :], prefix[1 : n - w + 1] - prefix[run_start],
                   out=count[w + 1 :], where=ties)
    return counts


def _count_walk(v, ws, w, stages, chunks, cand, top, uniforms) -> "tuple[int, ...]":
    """The draw of :func:`br_sampled_numpy` for one row from the counts of optimal completions.

    ``cand`` and ``top`` are the row's first-field candidates and their
    maximum; below the first field the walk reads each optimum from the
    row's stages.
    """
    counts = _completion_counts(v, ws, w, stages, chunks)
    fields = len(stages) + 1
    bids = []
    r = len(v) - 1
    for c in range(fields - 1, 0, -1):
        if c < fields - 1:
            cand = v[: r + 1] + stages[c - 1][r::-1]
            top = stages[c, r]
        branch = np.add.accumulate(np.where(cand == top, counts[c - 1][r::-1], 0))
        total = int(branch[-1])
        want = min(int(uniforms[fields - 1 - c] * total), total - 1)
        x = int(branch.searchsorted(want + 1))
        bids.append(x)
        r -= x
    bids.append(r)
    return tuple(bids)


@dataclass(frozen=True)
class KernelSet:
    name: str
    lex: Callable
    sampled: Callable


# Both names run the same kernels.  fp_run asks for "python" when its values
# are Python ints, so a tracer that wraps get_kernels counts those calls apart.
_KERNELS = {
    "numpy": KernelSet("numpy", br_lex_numpy, br_sampled_numpy),
    "python": KernelSet("python", br_lex_numpy, br_sampled_numpy),
}


def get_kernels(name: str = "numpy") -> KernelSet:
    """The shared-table kernels under ``name``: ``"numpy"`` or ``"python"`` (the same kernels)."""
    return _KERNELS[name]
