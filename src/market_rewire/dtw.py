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
_PAIR_BLOCK, so one call's working memory is O(_PAIR_BLOCK * w) floats,
about 2 MB at w = 20, whatever the asset count. Beyond that, a day over n
assets holds the n x n matrix and two O(n^2) pair-index arrays: one
500-asset, w = 20 day peaked at 7.3 MB under tracemalloc.

What a day computes the same way as every other day of the run is computed
once. The diagonal plan, the bounds and band clipping of each of the 2w - 1
anti-diagonals as ready-made slices, is cached per (w, band) for the eight
most recent keys, so a block's sweep is its numpy calls and little else.
On a 2-core Xeon VM that took the kernel's fastest call on a 20-asset day
(190 pairs) from 402 to 324 us; a 2048-pair block, whose time is the numpy
calls, did not change (2065 and 2021 us). The read-only pair-index arrays
are cached for the two most recent asset counts (2 MB at 500 assets), and
the pipeline takes the same arrays.
"""

from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ingest import _check_int
from .preprocess import StandardizedWindow

# Pairs per kernel call. At w = 20 one call's buffers and operands take about
# 2 MB, one core's L2 on the 2-core Xeon it was tuned on. Over 200 assets x 60
# days, 2048 ran fastest at 1 thread and on par with 4096 and 8192 at 2
# threads; 512 took twice as long at 2 threads, because every numpy call holds
# the GIL for its Python overhead and smaller blocks make more calls.
_PAIR_BLOCK = 2048


@dataclass
class DistanceMatrix:
    """Symmetric matrix of pairwise DTW distances for one end date."""

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


def _batched_dtw(P: np.ndarray, Q: np.ndarray, band: int | None) -> np.ndarray:
    """DTW over many equal-length pairs at once; columns of P align with columns of Q.

    The table is padded with a +inf border and a 0 corner, so every cell takes
    the same update. It is swept one anti-diagonal s = i + j at a time: a
    diagonal needs only the two before it, so all its cells are one vectorised
    step. The three rolling diagonals are indexed by i; the band is a range of i.
    """
    w, k = P.shape
    R = Q[::-1]  # cell (i, s - i) costs |P[i - 1] - R[w - s + i]|
    d2, d1, d0 = np.full((3, w + 1, k), np.inf)
    c = np.empty((w, k))
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
    return d1[w]


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
            vals[block] = _batched_dtw(Z.take(ii[block], axis=1), Z.take(jj[block], axis=1), band)
        d[ii, jj] = vals
        d[jj, ii] = vals
    return DistanceMatrix(end_date=end, asset_ids=tuple(ids), d=d)
