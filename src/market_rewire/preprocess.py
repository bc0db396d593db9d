"""Trailing-window extraction, within-window z-scoring, and risk-direction correction."""

import warnings
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .ingest import AssetMeta, PricePanel


@dataclass
class StandardizedWindow:
    """One asset's trailing window after z-scoring and direction correction."""

    asset_id: str
    end_date: date
    values: np.ndarray


def _zscore_rows(x: np.ndarray) -> np.ndarray:
    """Z-score each row of a 2-D float array by its own mean and sample std.

    Reducing along the last axis of a C-contiguous array sums each row with
    numpy's pairwise summation, exactly as the 1-D call does, so every row is
    bitwise equal to z-scoring it alone; reducing along axis 0 is not.
    """
    if not np.isfinite(x).all():
        raise ValueError("window contains non-finite values")
    sd = x.std(axis=1, ddof=1, keepdims=True)
    constant = sd[:, 0] == 0.0
    if constant.any():
        warnings.warn("constant window: standardized values set to zero", stacklevel=3)
        sd[constant] = 1.0
    z = (x - x.mean(axis=1, keepdims=True)) / sd
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
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    x = np.asarray(window, dtype=float)
    return x * float(direction)


def windows_at(
    panel: PricePanel,
    t: int,
    w: int,
    assets: Sequence[AssetMeta] | None = None,
) -> list[StandardizedWindow]:
    """Standardized, direction-corrected windows for every asset at date index `t`.

    The window covers the w trailing observations at indices [t-w+1, t]. Pass
    `assets` to override the panel's metadata (same ids, same order), e.g. to
    flip a direction sign without rebuilding the panel.
    """
    if w < 2:
        raise ValueError(f"window width must be >= 2, got {w}")
    if not 0 <= t < panel.n_dates:
        raise ValueError(f"date index {t} out of range for panel with {panel.n_dates} dates")
    if t < w - 1:
        raise ValueError(
            f"insufficient history: window of width {w} ending at index {t} "
            f"needs t >= {w - 1}"
        )
    if assets is None:
        assets = panel.assets
    else:
        assets = list(assets)
        if tuple(a.asset_id for a in assets) != panel.asset_ids:
            raise ValueError("asset override must match the panel's ids and order")

    end = panel.dates[t]
    rows = np.ascontiguousarray(panel.values[t - w + 1 : t + 1, :].T, dtype=float)
    z = _zscore_rows(rows)
    z *= np.array([[float(a.direction)] for a in assets])
    return [
        StandardizedWindow(asset_id=meta.asset_id, end_date=end, values=row)
        for meta, row in zip(assets, z)
    ]
