"""Dynamic time warping distances and per-day pairwise distance matrices.

The recurrence is the classic symmetric step pattern over an absolute-
difference local cost:

    f(i, j) = |p_i - q_j| + min(f(i, j-1), f(i-1, j), f(i-1, j-1))

with f(0, 0) = |p_0 - q_0| and out-of-grid predecessors treated as +inf.
There is no path-length normalization and, by default, no global warping
band. `dtw_distance` is the scalar loop over one pair. `_pair_distances`
fills a pair-ordered vector with the distances of given column pairs of a
day's (w, n) window array, or one such vector per date of a block of dates;
`distance_matrix` wraps it for one day's windows, and a run's block step
(`_block_distances`) sweeps the same way. It runs one of two
batched versions of the same dynamic program. Every version performs the
scalar loop's elementary float operations on the same values, |p - q|, two
mins and one add per cell, so all results agree bitwise.

The compiled kernel (`_native.c`'s `dtw_block`, the library's one DTW
export, `KERNEL == "c"`) sweeps the table row by row for groups of pairs
laid out pair-minor, so its innermost loop runs across pairs and
vectorises, and loops over a block's dates within the one call. Given a
panel, as in a run's block step, it first z-scores the block with numpy's
steps and bits; given none, as in `_pair_distances`, it sweeps the windows
it is given. Its scratch, (4w + 2) doubles per pair of a group, is a numpy
array that each call allocates. Where `_native` loaded no library, `KERNEL`
reads "numpy", and `preprocess`'s numpy z-scores and the numpy wavefront
run instead.

The numpy wavefront keeps pairs on the last axis and sweeps the table by
anti-diagonals, holding three of them. It takes the pairs in blocks of
_PAIR_BLOCK, so one block's working memory, (6w + 3) * k * 8 bytes for k
pairs, is about 2 MB at w = 20 whatever the asset count. As with the compiled
kernel, each `_pair_distances` call allocates that scratch, 64-byte aligned,
for its largest block, and builds the diagonal plan, the bounds and band
clipping of the 2w - 1 anti-diagonals as ready-made slices, once for all its
blocks and dates, and holds neither after it returns.

Beyond the kernel, a run's block of dates over n assets holds its
distances, n(n-1)/2 doubles a date, and the previous date's, and two
O(n^2) pair-index arrays, read-only and cached for the two most recent
asset counts (2 MB at 500 assets). `distance_matrix` also builds an n x n matrix, which
`DistanceMatrix` copies; one 400-asset, w = 20 call stays under 16 MB of
traced allocations on either kernel.
"""

from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import _native
from ._native import KERNEL  # "c" where the compiled library loaded, else "numpy"
from .ingest import _check_date, _check_ids, _check_int
from .preprocess import NON_FINITE, StandardizedWindow, _window_rows, _zscore_flags

# Pairs per block of the numpy wavefront. At w = 20 a block's scratch takes
# about 2 MB, one core's L2 on the 2-core AVX-512 Xeon VM it was tuned on. With
# the scratch allocated per `_pair_distances` call, `run(threads=1)` over 200
# assets x 30 days took a median 202 ms at 2048 and 213 ms at 1024, fastest of
# 10 in each of 9 alternated processes per size; at 20 assets, 190 pairs a
# date, both sizes take a date in one block and tie.
_PAIR_BLOCK = 2048


@dataclass
class DistanceMatrix:
    """Symmetric, zero-diagonal matrix of pairwise DTW distances for one end date."""

    end_date: date
    asset_ids: tuple[str, ...]
    d: np.ndarray

    def __post_init__(self):
        _check_date(self.end_date, "end_date")
        self.asset_ids = _check_ids(self.asset_ids, "asset_ids")
        if len(set(self.asset_ids)) != len(self.asset_ids):
            raise ValueError("asset_ids must be unique")
        n = len(self.asset_ids)
        d = np.array(self.d, dtype=float, copy=True)
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


def _pair_positions(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The position in `_pair_indices(n)` order of each pair (a[e], b[e]) of
    distinct places of n, in either end order: lo·(2n - lo - 1)/2 + hi - lo - 1
    for the pair's lower place lo and higher place hi."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lo * (2 * n - lo - 1) // 2 + hi - lo - 1


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


def _pair_distances(
    Z: np.ndarray, ii: np.ndarray, jj: np.ndarray, band: int | None, out: np.ndarray
) -> None:
    """DTW of column ii[p] of the (w, n) array Z against column jj[p], into
    out[p], for every p; or, for a block of D dates, of Z[d], a (D, w, n)
    array, into out[d], a (D, k) one. One call of the compiled kernel does
    the whole block where it loaded; else the numpy wavefront takes each
    date in blocks of _PAIR_BLOCK pairs."""
    k = ii.size
    if _native.lib is None:
        w = Z.shape[-2]
        plan, work = _diagonal_plan(w, band), _aligned((6 * w + 3) * min(k, _PAIR_BLOCK))
        for Zd, od in zip(Z[None] if Z.ndim == 2 else Z, out[None] if out.ndim == 1 else out):
            for start in range(0, k, _PAIR_BLOCK):
                block = slice(start, start + _PAIR_BLOCK)
                _batched_dtw(Zd, ii[block], jj[block], plan, work, od[block])
        return
    w, n = Z.shape[-2:]
    days = Z.shape[:1] if Z.ndim == 3 else ()  # (D,) for a block of D dates, () for one date
    at_Z = _native.address(Z, np.float64, days + (w, n), "the DTW kernel")
    at_ii, at_jj = (_native.address(a, np.int64, (k,), "the DTW kernel") for a in (ii, jj))
    at_out = _native.address(out, np.float64, days + (k,), "the DTW kernel", writeable=True)
    band = w if band is None else min(band, w)
    work = _aligned((4 * w + 2) * _native.GROUP)
    # no panel: the call sweeps the windows already in Z
    args = None, n, 0, days[0] if days else 1, w, None, at_Z, None, at_ii, at_jj, k, band, work.ctypes.data, at_out
    if _native.lib.dtw_block(*args):
        raise IndexError(f"a pair index is outside 0 .. {n - 1}")


def _block_distances(
    values: np.ndarray, signs: np.ndarray, ii: np.ndarray, jj: np.ndarray, w: int, band: int | None
) -> Callable[[int, int], tuple[tuple[np.ndarray, np.ndarray, np.ndarray], Callable[[], None]]]:
    """A run's block step: `block(start, days)` allocates the arrays of the
    dates start .. start + days - 1 of `values`, a (dates, n) panel, and
    returns them, `(Z, flags, out)`, with `fill()`, which fills them: Z,
    (days, w, n), the windows of width w ending on those dates, z-scored
    and times `signs`, the (n,) direction signs; flags, (days, n) uint8,
    each window's `preprocess.CONSTANT` and `NON_FINITE`; and out, (days,
    k), the DTW distances of pairs (ii[p], jj[p]) under `band`, unless a
    window's mean or std is not finite, which leaves out unset. `fill`
    warns of nothing and raises nothing for the flags: the caller reads
    them. A pool thread may run `fill` while this thread, which allocated
    the arrays, goes on. `block` raises ValueError for dates that hold no
    complete windows.

    On either kernel the three arrays are views of one array, after the
    compiled kernel's scratch where it loaded, and the addresses of
    `values`, `signs`, ii and jj are checked here, once for every block.
    Only `fill` differs: where the library loaded it is one `dtw_block`
    call, with the GIL released; else `_zscore_flags` and
    `_pair_distances`. Either way each date gets the bits of
    `preprocess.windows_at` and of `_pair_distances` on that date alone.
    """
    n, k, lib = values.shape[1], ii.size, _native.lib
    at = [
        _native.address(a, dtype, shape, "the DTW kernel")
        for a, dtype, shape in zip(
            (values, signs, ii, jj), (np.float64, np.float64, np.int64, np.int64), ((len(values), n), (n,), (k,), (k,))
        )
    ]
    band = w if band is None else min(band, w)
    # doubles of scratch, shared by the compiled z-scores and the sweep; the
    # numpy leg's `_pair_distances` allocates its own
    scratch = 0 if lib is None else max((4 * w + 2) * _native.GROUP, (10 + w.bit_length()) * n)

    def block(start: int, days: int):
        if not w - 1 <= start <= start + days <= len(values):
            raise ValueError(f"dates {start} .. {start + days - 1} hold no complete windows of {w}")
        # One array, for one address lookup (1.3-2.7 us each): the scratch
        # from a 64-byte boundary (see _aligned), then Z, out and the flags.
        # It is allocated here, by the thread that hands the block out, and
        # not in `fill`: from a pool thread, in that thread's own malloc
        # arena, it raised backfill_wide's peak RSS by about 1.2 MB.
        buf = np.empty(scratch + days * (w * n + k) + -(-days * n // 8) + 7)
        address = buf.ctypes.data
        pad = (-address) % 64 // 8
        z, o, f = (pad + scratch + x for x in (0, days * w * n, days * (w * n + k)))
        Z, out = buf[z:o].reshape(days, w, n), buf[o:f].reshape(days, k)
        flags = buf[f:].view(np.uint8)[: days * n].reshape(days, n)

        def fill() -> None:
            # fill names values, signs, ii, jj and Z, flags and out, views of
            # buf, so all stay alive while the kernel reads and writes them
            # through raw addresses, whatever the caller still holds
            if lib is None:
                rows = _window_rows(values, start, start + days, w)
                flags[...] = _zscore_flags(rows)
                rows *= signs[:, None]
                np.copyto(Z, rows.transpose(0, 2, 1))
                if not (flags & NON_FINITE).any():
                    _pair_distances(Z, ii, jj, band, out)
            elif lib.dtw_block(
                at[0], n, start, days, w, at[1], address + 8 * z, address + 8 * f,
                at[2], at[3], k, band, address + 8 * pad, address + 8 * o,
            ) < 0:
                raise IndexError(f"a pair index is outside 0 .. {n - 1}")

        return (Z, flags, out), fill

    return block


def _aligned(size: int) -> np.ndarray:
    """At least `size` doubles of scratch from a 64-byte boundary: at np.empty's
    16 bytes the compiled kernel ran up to a third slower, the wavefront 1.2x."""
    raw = np.empty(size + 7)
    return raw[(-raw.ctypes.data) % 64 // 8 :]


def _batched_dtw(
    Z: np.ndarray, ii: np.ndarray, jj: np.ndarray, plan: tuple, work: np.ndarray, out: np.ndarray
) -> None:
    """DTW of column ii[p] of Z against column jj[p], for every p, into out[p].

    The table is padded with a +inf border and a 0 corner, so every cell takes
    the same update. It is swept one anti-diagonal s = i + j at a time: a
    diagonal needs only the two before it, so all its cells are one vectorised
    step. The three rolling diagonals are indexed by i; the band is a range of i.
    `plan` is `_diagonal_plan(w, band)`. P, Q, the cost buffer c and the diagonals
    are slices of `work`, (6w + 3) * k doubles or more, each written before read.
    """
    w, k = Z.shape[0], ii.size
    P, Q, c = work[: 3 * w * k].reshape(3, w, k)
    D = work[3 * w * k : (6 * w + 3) * k].reshape(3, w + 1, k)
    # the indices are in range, so "clip" changes nothing; "raise" would copy
    # through a temporary
    Z.take(ii, axis=1, out=P, mode="clip")
    Z.take(jj, axis=1, out=Q, mode="clip")
    R = Q[::-1]  # cell (i, s - i) costs |P[i - 1] - R[w - s + i]|
    D.fill(np.inf)
    d2, d1, d0 = D
    d2[0] = 0.0
    for cost, rows, rev, cells, edge in plan:
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


def distance_matrix(
    windows: Sequence[StandardizedWindow], band: int | None = None
) -> DistanceMatrix:
    """Pairwise DTW distance matrix over one day's standardized windows.

    All windows must share the same end date and length. Each unordered pair
    is evaluated once, by `_pair_distances` as in a run, and mirrored, so the
    result is symmetric with a zero diagonal, whatever the evaluation order.
    """
    band = _check_int(band, "band half-width", 0, none_ok=True)
    windows = list(windows)
    if not windows:
        raise ValueError("need at least one window")
    end, w = windows[0].end_date, len(windows[0].values)
    for win in windows:
        if win.end_date != end:
            raise ValueError(f"mismatched end dates: {win.asset_id} has {win.end_date}, expected {end}")
        if len(win.values) != w:
            raise ValueError(f"mismatched window lengths: {win.asset_id} has {len(win.values)}, expected {w}")
    if w < 1:
        raise ValueError("windows must be non-empty")
    Z = np.stack([win.values for win in windows], axis=1).astype(float, copy=False)
    if not np.isfinite(Z).all():
        raise ValueError("windows contain non-finite values")
    n = len(windows)
    ii, jj = _pair_indices(n)
    upper = np.empty(ii.size)
    _pair_distances(Z, ii, jj, band, upper)
    d = np.zeros((n, n))
    d[ii, jj] = d[jj, ii] = upper
    return DistanceMatrix(end, [win.asset_id for win in windows], d)
