"""Trailing-window extraction, within-window z-scoring, and risk-direction correction.

The windows of a block of consecutive dates are copied into one array, one
per row (`_window_rows`), and `_zscore_flags` z-scores each row in place with
the bits that `window_zscore` gives it alone; `_check_flags` warns and raises
as its flags say. `window_zscore` and `windows_at` are the one-window and
one-date cases of these steps, which a run's numpy leg takes a block at a
time (`dtw._block_distances`). Where the compiled DTW library loaded, a run
z-scores each block inside its one kernel call (`_native.c`'s `dtw_block`,
given the panel), with the same steps and bits, and only reads the flags
with `_check_flags`.
"""

import warnings
from dataclasses import dataclass
from datetime import date
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ingest import PricePanel, _check_direction, _check_int


@dataclass
class StandardizedWindow:
    """One asset's trailing window after z-scoring and direction correction."""

    asset_id: str
    end_date: date
    values: np.ndarray


# Per-(date, row) flags of a z-scored block: a constant window, and a
# window whose mean or std is not finite. `_native.c`'s dtw_block sets the same.
CONSTANT, NON_FINITE = 1, 2


def _zscore_flags(x: np.ndarray) -> np.ndarray:
    """Z-score each row of a C-contiguous (dates, rows, w) float array by its
    own mean and sample std, in place; return the (dates, rows) uint8 flags,
    CONSTANT and NON_FINITE, and warn of nothing.

    Reducing the (dates·rows, w) view along its last, contiguous axis sums
    each row with numpy's pairwise summation, exactly as the 1-D call does,
    so every row is bitwise equal to z-scoring it alone; reducing along
    another axis is not. The mean is taken once and subtracted in place,
    and the std is taken from those deviations by `np.std`'s own steps
    (square, sum, divide by w - 1, square root), so it has `np.std`'s bits.
    A row is constant when every value equals its first (0.0 equals -0.0)
    or its std is 0.0, and its z-scores are zeros. A row whose mean or std
    is not finite (a NaN, or magnitudes that overflow) holds no z-scores.
    """
    days, rows, w = x.shape
    flat = x.reshape(days * rows, w)  # a view, so the z-scores land in x
    # equality with the first value is exact where a zero std is not: a
    # repeated 100.37 has a rounded mean and a tiny nonzero std
    constant = (flat == flat[:, :1]).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = flat.mean(axis=1, keepdims=True)
        flat -= mean
        # np.std's own steps from the deviations, so its bits; np.std would
        # take the mean again, and its mean= needs numpy 2
        sd = np.square(flat).sum(axis=1, keepdims=True)
        sd /= w - 1
        np.sqrt(sd, out=sd)
        bad = ~(np.isfinite(mean) & np.isfinite(sd))[:, 0]
        # a std that underflows to zero (spreads below about 1e-161) counts
        # as constant too
        constant |= sd[:, 0] == 0.0
        sd[constant] = 1.0
        flat /= sd
    flat[constant] = 0.0
    flags = constant.view(np.uint8)
    flags[bad] |= NON_FINITE
    return flags.reshape(days, rows)


def _check_flags(flags: np.ndarray, where: Callable[[int, int], str], stacklevel: int) -> None:
    """Warn and raise as the (dates, rows) flags of a z-scored block say:
    one warning for each date with a constant row, in date order, pointing
    `stacklevel` frames up, as `warnings.warn` counts them from here; then,
    at the first date with a non-finite row, a ValueError naming
    `where(date, row)`, after the warnings of the dates before it."""
    if not flags.any():
        return
    bad = (flags & NON_FINITE).any(axis=1)
    # the dates before the first one with a bad row
    good = int(np.argmax(bad)) if bad.any() else len(flags)
    for _ in range(np.count_nonzero((flags[:good] & CONSTANT).any(axis=1))):
        warnings.warn("constant window: standardized values set to zero", stacklevel=stacklevel)
    if good < len(flags):
        row = int(np.argmax(flags[good] & NON_FINITE))
        raise ValueError(
            f"non-finite mean or standard deviation in {where(good, row)} "
            "(a missing value, or magnitudes that overflow)"
        )


def window_zscore(raw_window) -> np.ndarray:
    """Standardize a window by its own mean and sample standard deviation.

    Uses the n-1 denominator. A constant window has zero spread and carries
    no shape information: it maps to all-zeros with a warning rather than
    NaN, so a stale quote cannot poison downstream distance calculations.
    """
    x = np.array(raw_window, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"window must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"window must have at least 2 observations, got {x.size}")
    _check_flags(_zscore_flags(x[None, None, :]), lambda date, row: "the window", stacklevel=3)
    return x


def apply_direction(window, direction: int) -> np.ndarray:
    """Multiply a window elementwise by its risk-on direction sign (+1 or -1)."""
    x = np.asarray(window, dtype=float)
    return x * float(_check_direction(direction, "direction"))


def _window_rows(values: np.ndarray, start: int, stop: int, w: int) -> np.ndarray:
    """The (stop - start, n, w) array of each column's window of `values`,
    a (dates, n) array, ending at each date index start .. stop - 1, one
    row per column, as a C-contiguous copy; the caller checks the indices
    and w."""
    step, across = values.strides
    # row (d, a) is asset a's window ending at date index start + d: a sliding
    # window over the dates, copied in C order so that every row is
    # contiguous; a copy in the view's own axis order would leave rows strided
    shape = (stop - start, values.shape[1], w)
    view = as_strided(values[start - w + 1 :], shape, (step, across, step), writeable=False)
    return np.array(view, dtype=float, order="C")


def _window_names(panel: PricePanel, start: int) -> Callable[[int, int], str]:
    """What names the window of asset `row` ending at date index start + `date`."""

    def where(date, row):
        return f"the window of asset {panel.assets[row].asset_id!r} ending {panel.dates[start + date]}"

    return where


def windows_at(panel: PricePanel, t: int, w: int) -> list[StandardizedWindow]:
    """Standardized, direction-corrected windows for every asset at date index `t`.

    The window covers the w trailing observations at indices [t-w+1, t].
    """
    _check_int(w, "window width", 2)
    if not 0 <= _check_int(t, "date index") < panel.n_dates:
        raise ValueError(f"date index {t} out of range for panel with {panel.n_dates} dates")
    if t < w - 1:
        raise ValueError(
            f"insufficient history: window of width {w} ending at index {t} "
            f"needs t >= {w - 1}"
        )
    rows = _window_rows(panel.values, t, t + 1, w)
    _check_flags(_zscore_flags(rows), _window_names(panel, t), stacklevel=3)
    rows *= np.array([[float(a.direction)] for a in panel.assets])
    return [
        StandardizedWindow(asset_id=meta.asset_id, end_date=panel.dates[t], values=row)
        for meta, row in zip(panel.assets, rows[0])
    ]
