"""Trailing-window extraction, within-window z-scoring, and risk-direction correction."""

import warnings
from dataclasses import dataclass
from datetime import date
from typing import Callable

import numpy as np

from .ingest import PricePanel, _check_direction, _check_int


@dataclass
class StandardizedWindow:
    """One asset's trailing window after z-scoring and direction correction."""

    asset_id: str
    end_date: date
    values: np.ndarray


def _zscore_rows(
    x: np.ndarray, where: Callable[[int], str] = lambda row: "the window", stacklevel: int = 3
) -> np.ndarray:
    """Z-score each row of a 2-D float array by its own mean and sample std.

    Reducing along the last axis of a C-contiguous array sums each row with
    numpy's pairwise summation, exactly as the 1-D call does, so every row is
    bitwise equal to z-scoring it alone; reducing along axis 0 is not. A row
    whose mean or std is not finite (a NaN, or magnitudes that overflow)
    raises a ValueError naming `where(row)`. The constant-window warning
    points `stacklevel` frames up, as `warnings.warn` counts them from here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1, keepdims=True)
        sd = x.std(axis=1, ddof=1, keepdims=True)
    bad = ~(np.isfinite(mean) & np.isfinite(sd))[:, 0]
    if bad.any():
        raise ValueError(
            f"non-finite mean or standard deviation in {where(int(np.argmax(bad)))} "
            "(a missing value, or magnitudes that overflow)"
        )
    # max == min is exact where a zero std is not: a repeated 100.37 has a
    # rounded mean and a tiny nonzero std. A std that underflows to zero
    # (spreads below about 1e-161) counts as constant too.
    constant = (x.max(axis=1) == x.min(axis=1)) | (sd[:, 0] == 0.0)
    if constant.any():
        warnings.warn("constant window: standardized values set to zero", stacklevel=stacklevel)
        sd[constant] = 1.0
    z = (x - mean) / sd
    z[constant] = 0.0
    return z


def window_zscore(raw_window) -> np.ndarray:
    """Standardize a window by its own mean and sample standard deviation.

    Uses the n-1 denominator. A constant window has zero spread and carries
    no shape information: it maps to all-zeros with a warning rather than
    NaN, so a stale quote cannot poison downstream distance calculations.
    """
    x = np.asarray(raw_window, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"window must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"window must have at least 2 observations, got {x.size}")
    return _zscore_rows(x[None, :])[0]


def apply_direction(window, direction: int) -> np.ndarray:
    """Multiply a window elementwise by its risk-on direction sign (+1 or -1)."""
    x = np.asarray(window, dtype=float)
    return x * float(_check_direction(direction, "direction"))


def _zscored(panel: PricePanel, t: int, w: int, signs: np.ndarray, stacklevel: int = 3) -> np.ndarray:
    """The (n, w) array of each asset's window ending at date index t, one
    row per asset, z-scored and times `signs`, the (n, 1) direction signs;
    the caller checks t and w. `stacklevel` is `_zscore_rows`' own."""
    end = panel.dates[t]
    rows = np.ascontiguousarray(panel.values[t - w + 1 : t + 1, :].T, dtype=float)
    z = _zscore_rows(
        rows, lambda row: f"the window of asset {panel.assets[row].asset_id!r} ending {end}", stacklevel
    )
    z *= signs
    return z


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
    z = _zscored(panel, t, w, np.array([[float(a.direction)] for a in panel.assets]), stacklevel=4)
    return [
        StandardizedWindow(asset_id=meta.asset_id, end_date=panel.dates[t], values=row)
        for meta, row in zip(panel.assets, z)
    ]
