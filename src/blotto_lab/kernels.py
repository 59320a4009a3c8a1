"""The budget DP: maximize a separable value over exact-budget splits.

Every exact best response and every fictitious-play round reduces to
maximizing ``sum_k tables[k][bid_k]`` over bid vectors that spend the budget
exactly.  The DP comes in two implementations:

* Python ints (:func:`best_split`, :func:`br_sampled_python`) - never
  overflow.  ``best_split`` takes one table per battlefield and serves the
  exact side (best responses, dominance); with one shared table it is also
  the big-integer fallback of fictitious play.
* numpy int64 (:func:`br_lex_numpy`, :func:`br_sampled_numpy`) - one shared
  value table, max-plus stages through sliding windows.  Fictitious play uses
  them whenever its overflow guard shows scaled values fit in int64.  Both
  reuse one cached workspace of buffers for the last budget they saw, so they
  are not reentrant: no two calls may run at once (the package starts no
  threads).

Both return bit-identical results on shared tables (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Sequence

import numpy as np

NEG = -(1 << 61)  # sentinel for unreachable states; values are guarded below 2**60

BestReply = "tuple[int, tuple[int, ...]]"


# ---------------------------------------------------------------------------
# Python ints: never overflows
# ---------------------------------------------------------------------------


def best_split(tables: Sequence[Sequence[int]], budget: int) -> BestReply:
    """Maximize ``sum_k tables[k][bid_k]`` over bid vectors summing to ``budget``.

    Returns the optimum and the lexicographically smallest optimal bid
    vector.  To minimize, pass negated tables and negate the optimum: the
    minimizers are exactly the maximizers of the negation, so the witness is
    the lexicographically smallest minimizer.
    """
    k = len(tables)
    # tail[j][r]: optimum over fields j.. with r units left; every r is
    # reachable since bids may be zero or take the rest.
    tail = [None] * k
    tail[k - 1] = list(tables[k - 1][: budget + 1])
    for j in range(k - 2, 0, -1):
        row, prev = tables[j], tail[j + 1]
        tail[j] = [max(map(add, row, prev[r::-1])) for r in range(budget + 1)]
    bids = []
    r = budget
    for j in range(k - 1):
        cand = list(map(add, tables[j], tail[j + 1][r::-1]))
        x = cand.index(max(cand))
        bids.append(x)
        r -= x
    bids.append(r)
    return sum(row[x] for row, x in zip(tables, bids)), tuple(bids)


def br_lex_python(values: Sequence[int], budget: int, fields: int) -> BestReply:
    """Shared-table form of :func:`best_split`, the signature of ``br_lex_numpy``."""
    return best_split([list(values)] * fields, budget)


def br_sampled_python(
    values: Sequence[int], budget: int, fields: int, uniforms: Sequence[float]
) -> BestReply:
    """Uniform draw over all optimal bid vectors, driven by ``uniforms``.

    Counts optimal completions per state and walks stages choosing each bid
    with probability proportional to the completions it leaves open, so the
    draw is uniform over the full argmax set (up to float resolution of the
    supplied uniforms).
    """
    values = list(values)
    suffix = [values[: budget + 1]]
    counts = [[1] * (budget + 1)]
    for _ in range(1, fields):
        prev, prev_counts = suffix[-1], counts[-1]
        row, row_counts = [], []
        for r in range(budget + 1):
            best = max(values[x] + prev[r - x] for x in range(r + 1))
            row.append(best)
            row_counts.append(
                sum(prev_counts[r - x] for x in range(r + 1) if values[x] + prev[r - x] == best)
            )
        suffix.append(row)
        counts.append(row_counts)
    bids = []
    r = budget
    for c in range(fields - 1, 0, -1):
        target = suffix[c][r]
        prev, prev_counts = suffix[c - 1], counts[c - 1]
        total = counts[c][r]
        want = min(int(uniforms[fields - 1 - c] * total), total - 1)
        acc = 0
        for x in range(r + 1):
            if values[x] + prev[r - x] == target:
                acc += prev_counts[r - x]
                if acc > want:
                    bids.append(x)
                    r -= x
                    break
    bids.append(r)
    return suffix[fields - 1][budget], tuple(bids)


# ---------------------------------------------------------------------------
# numpy int64: stage-wise max-plus products through sliding windows
# ---------------------------------------------------------------------------


class _Workspace:
    """The buffers of one budget ``n``, reused by every numpy kernel call.

    ``windows[x, r]`` reads ``pad[n - x + r]``: the previous stage at
    ``r - x`` for ``x <= r`` and NEG (or a zero count) above the diagonal.
    Calls write only ``pad[n:]`` and ``pad_counts[n:]``, so the padding
    stays constant.
    """

    def __init__(self, n: int) -> None:
        view = np.lib.stride_tricks.sliding_window_view
        self.n = n
        self.pad = np.full(2 * n + 1, NEG, dtype=np.int64)
        self.windows = view(self.pad, n + 1)[::-1]
        self.pad_counts = np.zeros(2 * n + 1, dtype=np.int64)
        self.count_windows = view(self.pad_counts, n + 1)[::-1]
        self.buf = np.empty((n + 1, n + 1), dtype=np.int64)
        self.optimal = np.empty((n + 1, n + 1), dtype=bool)


@lru_cache(maxsize=1)
def _workspace(n: int) -> _Workspace:
    return _Workspace(n)


def _stage(ws: _Workspace, head: np.ndarray, prev: np.ndarray, out: np.ndarray) -> None:
    """``out[r] = max_x head[x] + prev[r - x]``; leaves the sums in ``ws.buf``."""
    ws.pad[ws.n :] = prev
    np.add(head, ws.windows, out=ws.buf)
    ws.buf.max(axis=0, out=out)


def br_lex_numpy(values: Sequence[int], budget: int, fields: int) -> BestReply:
    ws = _workspace(budget)
    v = np.asarray(values, dtype=np.int64)[: budget + 1]
    head = v[:, None]
    # the walk back from the full budget reads stages 0 .. fields - 2 only
    stages = np.empty((fields, budget + 1), dtype=np.int64)
    stages[0] = v
    for c in range(1, fields - 1):
        _stage(ws, head, stages[c - 1], stages[c])
    bids = []
    r = budget
    for c in range(fields - 1, 0, -1):
        x = int((v[: r + 1] + stages[c - 1][r::-1]).argmax())
        bids.append(x)
        r -= x
    bids.append(r)
    return int(v[bids].sum()), tuple(bids)


def br_sampled_numpy(
    values: Sequence[int], budget: int, fields: int, uniforms: Sequence[float]
) -> BestReply:
    n = budget
    ws = _workspace(n)
    v = np.asarray(values, dtype=np.int64)[: n + 1]
    head = v[:, None]
    stages = np.empty((fields, n + 1), dtype=np.int64)
    counts = np.empty((fields, n + 1), dtype=np.int64)
    stages[0] = v
    counts[0] = 1
    # as in br_lex_numpy, the walk back reads stages 0 .. fields - 2 only
    for c in range(1, fields - 1):
        _stage(ws, head, stages[c - 1], stages[c])
        ws.pad_counts[n:] = counts[c - 1]
        np.equal(ws.buf, stages[c], out=ws.optimal)
        # above the diagonal the zero count padding drops every term
        np.multiply(ws.count_windows, ws.optimal, out=ws.buf)
        ws.buf.sum(axis=0, out=counts[c])
    bids = []
    r = budget
    for c in range(fields - 1, 0, -1):
        cand = v[: r + 1] + stages[c - 1][r::-1]
        branch = np.where(cand == cand.max(), counts[c - 1][r::-1], 0).cumsum()
        total = int(branch[-1])
        want = min(int(uniforms[fields - 1 - c] * total), total - 1)
        x = int(np.searchsorted(branch, want + 1))
        bids.append(x)
        r -= x
    bids.append(r)
    return int(v[bids].sum()), tuple(bids)


@dataclass(frozen=True)
class KernelSet:
    name: str
    lex: Callable
    sampled: Callable


_KERNELS = {
    "numpy": KernelSet("numpy", br_lex_numpy, br_sampled_numpy),
    "python": KernelSet("python", br_lex_python, br_sampled_python),
}


def get_kernels(name: str = "numpy") -> KernelSet:
    """The shared-table kernels: ``"numpy"`` (int64) or ``"python"`` (Python ints)."""
    return _KERNELS[name]
