"""Per-day orchestration: windows -> distance matrix -> networks -> metrics.

For every date index t from window_w - 1 onward the pipeline standardizes
each asset's trailing window and computes the pairwise DTW distance matrix.
It then reads the date's metrics straight off the upper triangle of that
matrix and, from the second analyzable date on, of its change from the
previous day's: co-occurrence edges, components and graph-based entropy,
red and blue edges and hub counts (`networks.day_metrics`). On the dates in
`PipelineConfig.snapshot_dates` it also keeps the positions of the date's
co-occurrence, red and blue pairs in that upper triangle (`DaySnapshot`);
no graph is built unless a caller reads one.

`_run_days` is the one day loop: it runs a range of dates and holds two
upper triangles at a time. A serial run is one range of every analyzable
date. With more than one worker, each forked worker process runs one
contiguous range and sends back its rows, snapshots and warnings and the
upper triangles of its first and last dates, not a matrix per day. A
range's first row has no differential; the calling process remakes it, and
its snapshot, from that range's first upper triangle and the previous
range's last, so the rows, snapshots, errors and warnings are those of the
serial run.
"""

import os
import warnings
from collections.abc import Iterable
# ThreadPoolExecutor is unused here; the benchmark's tracer reads it as pipeline.ThreadPoolExecutor
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from datetime import date
from typing import Literal

import numpy as np

from .dtw import _pair_indices, distance_matrix
from .ingest import FILL_POLICIES, PricePanel, _check_date, _check_int, _check_real, fill_missing
from .networks import Graph, MetricsRow, SignedGraph, _pair_edges, day_metrics
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


@dataclass(frozen=True, eq=False, slots=True)
class DaySnapshot:
    """Per-date network snapshot, kept as the positions of the date's edges in
    the upper triangle of its distance matrix: with
    `ii, jj = np.triu_indices(len(asset_ids), 1)`, position p is the pair
    `(asset_ids[ii[p]], asset_ids[jj[p]])`. `cooc_pairs` holds the
    co-occurrence edges, `red_pairs` and `blue_pairs` the differential ones;
    both are None on the first analyzable date, where no previous distance
    matrix exists. A run's snapshots hold read-only arrays, 8 bytes per
    edge, and share one `asset_ids` tuple.

    `cooccurrence` and `differential` build the `Graph` and `SignedGraph`
    on each read and keep neither; `differential` is None on the first
    analyzable date. Two snapshots are equal when their date, ids and edge
    positions are.
    """

    end_date: date
    asset_ids: tuple[str, ...]
    cooc_pairs: np.ndarray
    red_pairs: np.ndarray | None = None
    blue_pairs: np.ndarray | None = None

    @property
    def cooccurrence(self) -> Graph:
        return Graph(self.end_date, self.asset_ids, _pair_edges(self.asset_ids, self.cooc_pairs))

    @property
    def differential(self) -> SignedGraph | None:
        if self.red_pairs is None:
            return None
        red, blue = (_pair_edges(self.asset_ids, p) for p in (self.red_pairs, self.blue_pairs))
        return SignedGraph(self.end_date, self.asset_ids, red, blue)

    def _key(self):
        positions = (self.cooc_pairs, self.red_pairs, self.blue_pairs)
        return self.end_date, self.asset_ids, [None if p is None else p.tolist() for p in positions]

    def __eq__(self, other):
        if not isinstance(other, DaySnapshot):
            return NotImplemented
        return self._key() == other._key()


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
    one with a full trailing window. `threads` > 1 splits the analyzable
    dates into that many contiguous ranges, each run by a forked worker
    process, at most one per analyzable day and per usable CPU; the result,
    and every error and warning, is that of the single-worker run. None or 0
    threads runs one worker; a negative or non-integer count raises.
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

    start, stop = w - 1, panel.n_dates
    workers = _worker_count(threads, stop - start)
    if workers > 1:
        rows, kept = _run_forked(panel, config, start, stop, workers)
    else:
        rows, kept, _, _ = _run_days(panel, config, start, stop)
    # every snapshot takes the run's one id tuple, also where its positions
    # came back pickled from a worker
    ids = panel.asset_ids
    result = RunResult(rows)
    for d, positions in kept.items():
        for p in positions:
            p.setflags(write=False)
        result.snapshots[d] = DaySnapshot(d, ids, *positions)
    return result


def _run_days(
    panel: PricePanel, config: PipelineConfig, start: int, stop: int
) -> tuple[list[MetricsRow], dict[date, list[np.ndarray]], np.ndarray, np.ndarray]:
    """The rows of date indices start .. stop-1, the snapshot dates' edge
    positions, and the upper triangles of the first and the last date's
    distance matrices. Each date's differential is taken against the date
    before it in the range, so the range's first row has none."""
    n = panel.n_assets
    ii, jj = _pair_indices(n)
    flat = ii * n + jj
    rows, kept = [], {}
    first = prev = None
    for t in range(start, stop):
        dm = distance_matrix(windows_at(panel, t, config.window_w), band=config.band_halfwidth)
        upper = dm.d.take(flat)
        row, positions = _day(dm.end_date, upper, prev, n, config)
        rows.append(row)
        if positions is not None:
            kept[row.end_date] = positions
        first = upper if t == start else first
        prev = upper
    return rows, kept, first, prev


def _day(
    end_date: date, upper: np.ndarray, prev: np.ndarray | None, n: int, config: PipelineConfig
) -> tuple[MetricsRow, list[np.ndarray] | None]:
    """One date's metrics row over n assets, from the upper triangle of its
    distance matrix and of the previous date's (None for no differential),
    and, on a snapshot date, its edge positions in that triangle, in the
    order of `DaySnapshot`'s fields, else None."""
    change = None if prev is None else upper - prev
    row, masks = day_metrics(
        end_date, n, _pair_indices(n), upper, change,
        config.cooc_threshold, config.diff_threshold, config.hub_min_degree,
    )
    return row, [np.flatnonzero(m) for m in masks] if config.wants_snapshot(end_date) else None


def _run_forked(
    panel: PricePanel, config: PipelineConfig, start: int, stop: int, workers: int
) -> tuple[list[MetricsRow], dict[date, list[np.ndarray]]]:
    """The rows and snapshot positions of the serial run of date indices
    start .. stop-1, from `_run_days` over one contiguous range of them in
    each of `workers` forked worker processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = [start + (stop - start) * k // workers for k in range(workers + 1)]
    rows, kept, last = [], {}, None
    # fork, so the workers call the module's functions as they are at the
    # time of the call; leaving the block waits for the ranges still
    # running, also after an error
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        for future in [pool.submit(_worker_range, panel, config, a, b) for a, b in zip(bounds, bounds[1:])]:
            try:
                (part, part_kept, first, part_last), caught = future.result()
            except Exception as error:
                _reissue(error.__dict__.pop("_caught", ()))
                raise
            _reissue(caught)
            if last is not None:
                # remake the range's first row with its differential
                part[0], positions = _day(part[0].end_date, first, last, panel.n_assets, config)
                if positions is not None:
                    part_kept[part[0].end_date] = positions
            rows += part
            kept.update(part_kept)
            last = part_last
    return rows, kept


def _worker_range(
    panel: PricePanel, config: PipelineConfig, start: int, stop: int
) -> tuple[tuple, list[tuple]]:
    """`_run_days` over date indices start .. stop-1 in a worker, and the
    warnings it issued, which the worker's caller does not see. An error
    that ends the range carries the warnings issued before it, as `_caught`."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _run_days(panel, config, start, stop), _records(caught)
        except Exception as error:
            error._caught = _records(caught)
            raise


def _records(caught: list[warnings.WarningMessage]) -> list[tuple]:
    return [(m.message, m.category, m.filename, m.lineno) for m in caught]


def _reissue(caught: list[tuple]) -> None:
    """Re-issue a worker's warnings in this process. They were issued from
    `_run_days`, as in the serial run, so they take this module's name and
    warning registry: the caller's filters see and deduplicate them alike."""
    registry = globals().setdefault("__warningregistry__", {})
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno, __name__, registry)
