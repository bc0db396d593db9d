"""Dynamic time warping distances and per-day pairwise distance matrices.

The recurrence is the classic symmetric step pattern over an absolute-
difference local cost:

    f(i, j) = |p_i - q_j| + min(f(i, j-1), f(i-1, j), f(i-1, j-1))

with f(0, 0) = |p_0 - q_0| and out-of-grid predecessors treated as +inf.
There is no path-length normalization and, by default, no global warping
band. `distance_matrix` evaluates all unordered pairs at once through a
pair-batched version of the same dynamic program; both code paths perform
identical elementary float operations, so their results agree bitwise.
The batched version keeps pairs on the last axis and only two rows of the
table, so one day's matrix over n assets and w-day windows needs
O(pairs * w) floats, pairs = n(n-1)/2: about 140 MB at 500 assets and
w = 20, where a full (pairs, w, w) table would need 0.8 GB.
"""

from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .preprocess import StandardizedWindow


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

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)


def _validate_band(band) -> int | None:
    if band is None:
        return None
    band = int(band)
    if band < 0:
        raise ValueError(f"band half-width must be >= 0, got {band}")
    return band


def dtw_distance(p, q, band: int | None = None) -> float:
    """DTW distance between two sequences under the recurrence above.

    `band` optionally restricts the alignment to |i - j| <= band (a plain
    diagonal band); the default is an unconstrained warp, which is what lets
    the alignment absorb cross-market timing lags. Raises if the sequences
    are empty, non-finite, or if the band admits no complete path.
    """
    band = _validate_band(band)
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


def _batched_dtw(P: np.ndarray, Q: np.ndarray, band: int | None) -> np.ndarray:
    """DTW over many equal-length pairs at once; columns of P align with columns of Q.

    The table is padded with a +inf border and a 0 corner, so every cell takes
    the same update; only two rows of it are kept, and the band is a range of j.
    """
    w, k = P.shape
    prev, cur = np.full((2, w + 1, k), np.inf)
    prev[0] = 0.0
    for i in range(w):
        lo, hi = (0, w) if band is None else (max(0, i - band), min(w, i + band + 1))
        c = np.abs(P[i] - Q[lo:hi])
        cur[lo] = np.inf  # left of the band: border, or a stale cell from row i - 2
        for j in range(lo, hi):
            np.minimum(cur[j], prev[j + 1], out=cur[j + 1])
            np.minimum(cur[j + 1], prev[j], out=cur[j + 1])
            cur[j + 1] += c[j - lo]
        prev, cur = cur, prev
    return prev[w]


def distance_matrix(
    windows: Sequence[StandardizedWindow], band: int | None = None
) -> DistanceMatrix:
    """Pairwise DTW distance matrix over one day's standardized windows.

    All windows must share the same end date and length. Each unordered pair
    is evaluated exactly once and mirrored, so the result is symmetric with a
    zero diagonal by construction, independent of evaluation order.
    """
    band = _validate_band(band)
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
        ii, jj = np.triu_indices(n, k=1)
        vals = _batched_dtw(Z.take(ii, axis=1), Z.take(jj, axis=1), band)
        d[ii, jj] = vals
        d[jj, ii] = vals
    return DistanceMatrix(end_date=end, asset_ids=tuple(ids), d=d)
