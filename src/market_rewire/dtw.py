"""Dynamic time warping distances and per-day pairwise distance matrices.

The recurrence is the classic symmetric step pattern over an absolute-
difference local cost:

    f(i, j) = |p_i - q_j| + min(f(i, j-1), f(i-1, j), f(i-1, j-1))

with f(0, 0) = |p_0 - q_0| and out-of-grid predecessors treated as +inf.
There is no path-length normalization and, by default, no global warping
band. `distance_matrix` evaluates all unordered pairs through a
pair-batched version of the same dynamic program; both code paths perform
identical elementary float operations, so their results agree bitwise.
The batched version keeps pairs on the last axis and sweeps the table by
anti-diagonals, holding three of them. It takes the pairs in blocks of
_PAIR_BLOCK, so one block's working memory, (6w + 3) * k * 8 bytes for k
pairs, is about 2 MB at w = 20 whatever the asset count. Beyond that, a day
over n assets holds the n x n matrix and two O(n^2) pair-index arrays: one
500-asset, w = 20 day peaked at 7.3 MB under tracemalloc.

The block buffers stay allocated between calls for the two most recently
used block shapes, a day's full blocks and its short last block, so up to
two sets (about 4 MB at w = 20) stay held after a call, and later blocks
take no page faults for fresh pages from the allocator.

What a day computes the same way as every other day of the run is computed
once. The diagonal plan, the bounds and band clipping of each of the 2w - 1
anti-diagonals as ready-made slices, is cached per (w, band) for the eight
most recent keys, so a block's sweep is its numpy calls and little else.
The read-only pair-index arrays are cached for the two most recent asset
counts (2 MB at 500 assets), and the pipeline takes the same arrays.
"""

import math
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ingest import _check_int
from .preprocess import StandardizedWindow

# Pairs per kernel call. At w = 20 one call's buffers take about 2 MB, one
# core's L2 on the 2-core Xeon VM it was tuned on. With the buffers kept
# between calls, the fastest of 40 200-asset days, in four processes per size,
# took 19.3-21.2 ms at 2048, 19.7-23.9 at 1024, 26.8-34.9 at 512 (more numpy
# calls) and 26.9-30.9 at 4096 (past L2); `run(threads=2)` over 200 assets x
# 60 days took 0.85-0.90 s at 2048, 0.89-0.95 at 1024 and 1.07-1.16 at 512
# and 4096, fastest of 6 in two processes per size.
_PAIR_BLOCK = 2048

# `_batched_dtw`'s work buffers P, Q, c and the three diagonals, kept between
# calls by block shape (w, k) for the _SPARE_SHAPES most recently used shapes:
# a day's full blocks and its short last block.
_SPARE_SHAPES = 2
_PAGE = 512  # float64s in a 4096-byte page
_spares: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


@dataclass
class DistanceMatrix:
    """Symmetric, zero-diagonal matrix of pairwise DTW distances for one end date."""

    end_date: date
    asset_ids: tuple[str, ...]
    d: np.ndarray

    def __post_init__(self):
        self.asset_ids = tuple(self.asset_ids)
        if len(set(self.asset_ids)) != len(self.asset_ids):
            raise ValueError("asset_ids must be unique")
        d = np.array(self.d, dtype=float, copy=True)
        n = len(self.asset_ids)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} does not match {n} assets")
        if not np.isfinite(d).all():
            raise ValueError("distance matrix entries must be finite")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if d.diagonal().any():
            raise ValueError("distance matrix diagonal must be zero")
        d.setflags(write=False)
        self.d = d

    def __setstate__(self, state):
        # pickling does not keep numpy's read-only flag
        self.__dict__.update(state)
        self.d.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)


def dtw_distance(p, q, band: int | None = None) -> float:
    """DTW distance between two sequences under the recurrence above.

    `band` optionally restricts the alignment to |i - j| <= band (a plain
    diagonal band); the default is an unconstrained warp, which is what lets
    the alignment absorb cross-market timing lags. Raises if the sequences
    are empty, non-finite, or if the band admits no complete path.
    """
    band = _check_int(band, "band half-width", 0, none_ok=True)
    P = np.asarray(p, dtype=float)
    Q = np.asarray(q, dtype=float)
    if P.ndim != 1 or Q.ndim != 1:
        raise ValueError("sequences must be one-dimensional")
    if P.size == 0 or Q.size == 0:
        raise ValueError("sequences must be non-empty")
    if not (np.isfinite(P).all() and np.isfinite(Q).all()):
        raise ValueError("sequences contain non-finite values")

    l, m = P.size, Q.size
    f = np.full((l, m), np.inf)
    for i in range(l):
        lo, hi = 0, m
        if band is not None:
            lo = max(0, i - band)
            hi = min(m, i + band + 1)
        for j in range(lo, hi):
            c = abs(P[i] - Q[j])
            if i == 0 and j == 0:
                f[0, 0] = c
            elif i == 0:
                f[0, j] = f[0, j - 1] + c
            elif j == 0:
                f[i, 0] = f[i - 1, 0] + c
            else:
                f[i, j] = c + min(f[i, j - 1], f[i - 1, j], f[i - 1, j - 1])
    out = f[l - 1, m - 1]
    if not np.isfinite(out):
        raise ValueError(f"band half-width {band} admits no complete warping path")
    return float(out)


@lru_cache(maxsize=2)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of an n x n matrix, as
    `np.triu_indices(n, 1)` gives them: read-only, and cached for the two
    most recent n, since every day of a run takes the same ones."""
    pairs = np.triu_indices(n, k=1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@lru_cache(maxsize=8)
def _diagonal_plan(w: int, band: int | None) -> tuple[tuple, ...]:
    """For each anti-diagonal s = 2 .. 2w of a w x w table under `band`, with
    cells lo .. hi, what `_batched_dtw` indexes: the cost buffer's first
    hi + 1 - lo rows, rows lo - 1 .. hi - 1 of P and of the predecessor
    diagonals, the matching rows of R, rows lo .. hi of the new diagonal and
    the index lo - 1."""
    plan = []
    for s in range(2, 2 * w + 1):
        lo, hi = max(1, s - w), min(w, s - 1)
        if band is not None:
            lo, hi = max(lo, (s - band + 1) // 2), min(hi, (s + band) // 2)
        cost, rows, cells = slice(0, hi + 1 - lo), slice(lo - 1, hi), slice(lo, hi + 1)
        plan.append((cost, rows, slice(w - s + lo, w - s + hi + 1), cells, lo - 1))
    return tuple(plan)


def _new_buffers(w: int, k: int) -> tuple[np.ndarray, ...]:
    """`_batched_dtw`'s P, Q, three diagonals and cost buffer c for blocks of
    k pairs, each starting on a page boundary of one allocation.

    malloc aligns to 16 bytes only. Kept buffers allocated one by one made
    days slower than fresh ones at 20 and 30 assets; page-aligned, they made
    them faster. Fastest day in each of five processes on a 2-core AVX-512
    Xeon VM, fresh / kept one by one / kept page-aligned: 320-327 / 333-336
    / 309-313 us at 20 assets, 517-527 / 538-542 / 478-489 us at 30 and
    24.7-25.7 / 18.7-20.0 / 16.2-17.1 ms at 200.
    """
    shapes = (w, k), (w, k), (3, w + 1, k), (w, k)
    spans = [-(-math.prod(shape) // _PAGE) * _PAGE for shape in shapes]  # whole pages
    arena = np.empty(sum(spans) + _PAGE)
    start = -arena.ctypes.data % (8 * _PAGE) // 8
    bufs = []
    for shape, span in zip(shapes, spans):
        bufs.append(arena[start : start + math.prod(shape)].reshape(shape))
        start += span
    return tuple(bufs)


def _batched_dtw(
    Z: np.ndarray, ii: np.ndarray, jj: np.ndarray, band: int | None, out: np.ndarray
) -> None:
    """DTW of column ii[p] of Z against column jj[p], for every p, into out[p].

    The table is padded with a +inf border and a 0 corner, so every cell takes
    the same update. It is swept one anti-diagonal s = i + j at a time: a
    diagonal needs only the two before it, so all its cells are one vectorised
    step. The three rolling diagonals are indexed by i; the band is a range of i.
    """
    w, k = Z.shape[0], ii.size
    # Taken out of the spare set, not looked up, so concurrent callers never
    # share one. Every buffer is overwritten before it is read.
    bufs = _spares.pop((w, k), None)
    if bufs is None:
        bufs = _new_buffers(w, k)
    P, Q, D, c = bufs
    # the indices are in range, so "clip" changes nothing; "raise" would copy
    # through a temporary
    Z.take(ii, axis=1, out=P, mode="clip")
    Z.take(jj, axis=1, out=Q, mode="clip")
    R = Q[::-1]  # cell (i, s - i) costs |P[i - 1] - R[w - s + i]|
    D.fill(np.inf)
    d2, d1, d0 = D
    d2[0] = 0.0
    for cost, rows, rev, cells, edge in _diagonal_plan(w, band):
        cn = c[cost]
        np.subtract(P[rows], R[rev], out=cn)
        np.abs(cn, out=cn)
        cell = d0[cells]
        np.minimum(d1[cells], d1[rows], out=cell)
        np.minimum(cell, d2[rows], out=cell)
        cell += cn
        # Diagonals s + 1 and s + 2 also read cells lo - 1 and hi + 1, which
        # are +inf (border or out of band). Cell lo - 1 may still hold diagonal
        # s - 3; cell hi + 1 was never written, since hi grows by at least one
        # every three diagonals (or stops at w, and then it is not read).
        d0[edge] = np.inf
        d2, d1, d0 = d1, d0, d2
    out[...] = d1[w]
    _spares[w, k] = bufs
    for key in list(_spares)[:-_SPARE_SHAPES]:
        _spares.pop(key, None)


def distance_matrix(
    windows: Sequence[StandardizedWindow], band: int | None = None
) -> DistanceMatrix:
    """Pairwise DTW distance matrix over one day's standardized windows.

    All windows must share the same end date and length. Each unordered pair
    is evaluated exactly once and mirrored, so the result is symmetric with a
    zero diagonal by construction, independent of evaluation order.
    """
    band = _check_int(band, "band half-width", 0, none_ok=True)
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    end = windows[0].end_date
    w = len(windows[0].values)
    ids = []
    for win in windows:
        if win.end_date != end:
            raise ValueError(f"mismatched end dates: {win.asset_id} has {win.end_date}, expected {end}")
        if len(win.values) != w:
            raise ValueError(f"mismatched window lengths: {win.asset_id} has {len(win.values)}, expected {w}")
        ids.append(win.asset_id)
    if w < 1:
        raise ValueError("windows must be non-empty")

    n = len(windows)
    d = np.zeros((n, n))
    if n > 1:
        Z = np.stack([win.values for win in windows], axis=1).astype(float, copy=False)
        if not np.isfinite(Z).all():
            raise ValueError("windows contain non-finite values")
        ii, jj = _pair_indices(n)
        vals = np.empty(ii.size)
        for start in range(0, ii.size, _PAIR_BLOCK):
            block = slice(start, start + _PAIR_BLOCK)
            _batched_dtw(Z, ii[block], jj[block], band, vals[block])
        d[ii, jj] = vals
        d[jj, ii] = vals
    return DistanceMatrix(end_date=end, asset_ids=tuple(ids), d=d)
