"""Per-day orchestration: windows -> distance matrix -> networks -> metrics.

For every date index t from window_w - 1 onward the pipeline standardizes
each asset's trailing window and computes the pairwise DTW distance matrix.
It then reads the date's metrics straight off the upper triangle of that
matrix and, from the second analyzable date on, of its change from the
previous day's: co-occurrence edges, components and graph-based entropy,
red and blue edges and hub counts (`networks.day_metrics`). `Graph` and
`SignedGraph` objects are built only for the dates in
`PipelineConfig.snapshot_dates`. Only two consecutive distance matrices are
held at a time; day-level parallelism is allowed because each matrix depends
only on its own window. The pool computes the matrices while the calling
thread turns them into rows, and Python work there holds the interpreter
lock the pool's numpy calls also need, so the per-day work is kept to a few
array operations.
"""

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Iterable, Literal

import numpy as np

from .dtw import DistanceMatrix, _is_integer, _validate_band, distance_matrix
from .ingest import FILL_POLICIES, PricePanel, fill_missing
from .networks import (
    Graph,
    MetricsRow,
    SignedGraph,
    cooccurrence_network,
    day_metrics,
    difference_matrix,
    differential_network,
)
from .preprocess import windows_at

THREAD_ENV_VAR = "MARKET_REWIRE_THREADS"

# days handed to the thread pool per batch; bounds peak matrix residency
_CHUNK = 64


@dataclass
class PipelineConfig:
    """Hyperparameters for one run. Defaults: 20-day windows, co-occurrence
    edges below 2.0, differential edges beyond 1.0 in absolute value, hubs at
    per-color degree 3."""

    window_w: int = 20
    cooc_threshold: float = 2.0
    diff_threshold: float = 1.0
    hub_min_degree: int = 3
    fill_policy: str = "forward_fill"
    band_halfwidth: int | None = None
    snapshot_dates: Literal["all"] | Iterable[date] | None = None

    def __post_init__(self):
        for name in ("window_w", "hub_min_degree"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("cooc_threshold", "diff_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.window_w < 2:
            raise ValueError(f"window_w must be >= 2, got {self.window_w}")
        if not self.cooc_threshold > 0:
            raise ValueError("cooc_threshold must be > 0")
        if not self.diff_threshold > 0:
            raise ValueError("diff_threshold must be > 0")
        if self.hub_min_degree < 1:
            raise ValueError("hub_min_degree must be >= 1")
        if self.fill_policy not in FILL_POLICIES:
            raise ValueError(f"fill_policy must be one of {FILL_POLICIES}")
        self.band_halfwidth = _validate_band(self.band_halfwidth)
        if self.snapshot_dates not in (None, "all"):
            if isinstance(self.snapshot_dates, str):
                raise ValueError(
                    f"snapshot_dates must be 'all', None or dates, not {self.snapshot_dates!r}"
                )
            dates = tuple(self.snapshot_dates)
            for d in dates:
                if not isinstance(d, date) or isinstance(d, datetime):
                    raise ValueError(f"snapshot_dates entries must be datetime.date, got {d!r}")
            self.snapshot_dates = frozenset(dates)

    def wants_snapshot(self, d: date) -> bool:
        if self.snapshot_dates is None:
            return False
        return self.snapshot_dates == "all" or d in self.snapshot_dates


@dataclass
class DaySnapshot:
    """Per-date network snapshot. `differential` is None on the first
    analyzable date, where no previous distance matrix exists."""

    cooccurrence: Graph
    differential: SignedGraph | None


@dataclass
class RunResult:
    metrics: list[MetricsRow] = field(default_factory=list)
    snapshots: dict[date, DaySnapshot] = field(default_factory=dict)


def _worker_count(threads: int | None) -> int:
    """Resolve the worker count: explicit argument, capped by the env var."""
    if threads is not None and threads < 0:
        raise ValueError(f"threads must be >= 0 (0 or None for the default), got {threads}")
    env = os.environ.get(THREAD_ENV_VAR, "").strip()
    cap = 0
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{THREAD_ENV_VAR} must be an integer, got {env!r}") from None
        if cap < 0:
            raise ValueError(f"{THREAD_ENV_VAR} must be >= 0, got {cap}")
    n = threads if threads is not None and threads > 0 else (cap if cap > 0 else 1)
    if cap > 0:
        n = min(n, cap)
    return max(1, n)


def run(panel: PricePanel, config: PipelineConfig | None = None, threads: int | None = None) -> RunResult:
    """Run the full per-day analysis over a panel.

    The panel needs at least window_w + 1 dates so that one differential step
    exists. Panels with missing cells are resolved with `config.fill_policy`
    first. Every date in `config.snapshot_dates` must be an analyzable date,
    one with a full trailing window. `threads` > 1 computes distance matrices
    for different days concurrently; the result is identical to the
    single-threaded run. None or 0 threads takes the default, and a negative
    count raises.
    """
    if config is None:
        config = PipelineConfig()
    workers = _worker_count(threads)
    if not panel.is_complete():
        panel = fill_missing(panel, config.fill_policy)
    w = config.window_w
    minimum = w + 1
    if panel.n_dates < minimum:
        raise ValueError(
            f"panel has {panel.n_dates} dates; need at least {minimum} "
            f"(window width {w} plus one differential step)"
        )
    if config.snapshot_dates not in (None, "all"):
        unknown = sorted(config.snapshot_dates.difference(panel.dates[w - 1 :]))
        if unknown:
            raise ValueError(
                f"snapshot date(s) {', '.join(str(d) for d in unknown)} not among the "
                f"analyzable dates {panel.dates[w - 1]} .. {panel.dates[-1]}"
            )

    indices = range(w - 1, panel.n_dates)
    n = panel.n_assets
    pairs = np.triu_indices(n, k=1)
    flat = pairs[0] * n + pairs[1]

    def matrix_at(t: int) -> DistanceMatrix:
        return distance_matrix(windows_at(panel, t, w), band=config.band_halfwidth)

    result = RunResult()
    prev: DistanceMatrix | None = None
    if workers <= 1:
        for t in indices:
            prev = _process_day(matrix_at(t), prev, pairs, flat, config, result)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for start in range(indices.start, indices.stop, _CHUNK):
                chunk = range(start, min(start + _CHUNK, indices.stop))
                for dm in pool.map(matrix_at, chunk):
                    prev = _process_day(dm, prev, pairs, flat, config, result)
    return result


def _process_day(
    dm: DistanceMatrix,
    prev: DistanceMatrix | None,
    pairs: tuple[np.ndarray, np.ndarray],
    flat: np.ndarray,
    config: PipelineConfig,
    result: RunResult,
) -> DistanceMatrix:
    """Append the date's metrics row, computed from the upper triangles of the
    distance matrices (`pairs` as row and column indices, `flat` as
    row-major ones), and build the date's graphs only if it is a snapshot
    date."""
    upper = dm.d.take(flat)
    change = None if prev is None else upper - prev.d.take(flat)
    row = day_metrics(
        dm.end_date,
        dm.n_assets,
        pairs,
        upper,
        change,
        config.cooc_threshold,
        config.diff_threshold,
        config.hub_min_degree,
    )
    result.metrics.append(row)
    if config.wants_snapshot(dm.end_date):
        g = cooccurrence_network(dm, config.cooc_threshold)
        sg = None
        if prev is not None:
            diff = difference_matrix(dm, prev)
            sg = differential_network(diff, config.diff_threshold, dm.asset_ids, dm.end_date)
        result.snapshots[dm.end_date] = DaySnapshot(cooccurrence=g, differential=sg)
    return dm
