"""Per-day orchestration: panel -> z-scored windows -> pair distances -> metrics.

For every date index t from window_w - 1 onward the pipeline z-scores and
direction-signs every asset's trailing window (`preprocess._zscored`) and
computes the DTW distance of every asset pair, in `np.triu_indices` order
(`dtw._pair_distances`). It reads the date's metrics straight off those
distances and, from the second analyzable date on, off their change from the
previous date's (`networks.day_metrics`). On the dates in
`PipelineConfig.snapshot_dates` it also keeps the positions of the date's
co-occurrence, red and blue pairs, copied out of the block's sorted edge
positions (`DaySnapshot`). No window object, distance matrix or graph is
built on the way.

The dates go in blocks of consecutive dates, as many as _BLOCK_DOUBLES
holds (one date a block from 110 assets at w = 20 on): each of the three
steps is one array operation, or one kernel call, per block, and gives each
date the bytes it would give that date alone.

`_run_days` is the one day loop. The calling thread z-scores the blocks and
reads their metrics, both in date order, so every warning and error comes
as in a serial run. With more than one worker it hands each block's kernel
call to a pool of that many threads and keeps at most one more block than
that in flight; the compiled kernel releases the GIL while it runs.
"""

import os
from collections import deque
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import date
from typing import Literal

import numpy as np

from .dtw import _pair_distances, _pair_indices
from .ingest import FILL_POLICIES, PricePanel, _check_date, _check_int, _check_real, fill_missing
from .networks import Graph, MetricsRow, SignedGraph, _pair_edges, day_metrics
from .preprocess import _zscored


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
    """Per-date network snapshot, kept as the positions of the date's edges
    in the run's pair order: with `ii, jj = np.triu_indices(len(asset_ids), 1)`,
    position p is the pair `(asset_ids[ii[p]], asset_ids[jj[p]])`.
    `cooc_pairs` holds the co-occurrence edges, `red_pairs` and `blue_pairs`
    the differential ones, None on the first analyzable date. A run's
    snapshots hold read-only arrays, 8 bytes per edge, and share one
    `asset_ids` tuple. `cooccurrence` and `differential` build a `Graph` and
    a `SignedGraph` (None on the first analyzable date) on each read and
    keep neither; they and the renderer in `export` reject positions that
    are not integers in 0 .. n(n-1)/2 - 1, which a run never makes. Two
    snapshots are equal when their date, ids and edge positions are.
    """

    end_date: date
    asset_ids: tuple[str, ...]
    cooc_pairs: np.ndarray
    red_pairs: np.ndarray | None = None
    blue_pairs: np.ndarray | None = None

    @property
    def cooccurrence(self) -> Graph:
        edges = _pair_edges(self.asset_ids, self._checked(self.cooc_pairs))
        return Graph(self.end_date, self.asset_ids, edges)

    @property
    def differential(self) -> SignedGraph | None:
        if self.red_pairs is None:
            return None
        ids = self.asset_ids
        red, blue = (_pair_edges(ids, self._checked(p)) for p in (self.red_pairs, self.blue_pairs))
        return SignedGraph(self.end_date, ids, red, blue)

    def _checked(self, positions) -> np.ndarray:
        """`positions`, one of this snapshot's runs, as intp; a ValueError
        naming the date unless they are integers in 0 .. n(n-1)/2 - 1."""
        p, m = np.asarray(positions), len(self.asset_ids) * (len(self.asset_ids) - 1) // 2
        if p.ndim != 1 or p.size and (p.dtype.kind not in "iu" or p.min() < 0 or p.max() >= m):
            raise ValueError(f"snapshot of {self.end_date}: edge positions must be integers in 0 .. {m - 1}")
        return p.astype(np.intp, copy=False)

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


# The least DTW work of a block of dates, the table cells its kernel call
# sweeps, at which a run hands its blocks to a thread pool: each handoff
# costs 0.1-0.2 ms, and the calling thread's own work slows while the pool
# threads share its cores. Time of threads=2 over threads=1, fastest of
# 30-40 alternated calls per run, 120 days at w = 20 (2-core AVX-512 Xeon
# VM, busy host): 0.89-1.34 at 20 assets (27 dates a block, 2.05M cells;
# above 1 in four of six runs), 0.95-1.08 at 25 (2.40M), 0.81-1.17 at 30
# (2.61M), 0.90-1.09 at 40 (3.12M), 0.81-1.01 at 60 (3.54M), 0.77-0.97 at
# 80 (3.79M), 0.85 at 110 (one date a block, 2.40M) and 0.88 at 115 (2.62M);
# at 100 assets 0.95-1.21 with band 0 (0.20M) and 0.82-1.00 with band 2
# (0.93M). The bound keeps 20-asset blocks inline and pools 110-asset dates.
_POOL_MIN_WORK = 2_200_000

# Doubles per block of dates, where a date takes n·w z-scored window values
# and one distance per pair. Fastest of 25 alternated `run` calls at w = 20
# in two runs, and the traced peak beyond the rows kept (2-core AVX-512 Xeon
# VM): at 20 assets x 252 days 13.9-21.1 ms at 4,096 (6 dates a block),
# 10.2-16.2 at 8,192, 8.9-13.8 at 16,384, 8.4-12.7 at 32,768 and 8.5-13.0 at
# 65,536, holding 0.07, 0.15, 0.28, 0.51 and 0.96 MB; at 40 assets 42-43,
# 30-31, 26-28, 24-24 and 24-34 ms. Past 16,384 the time gained is within
# the spread and the memory doubles with each step.
_BLOCK_DOUBLES = 16_384


def _block_span(n: int, w: int) -> int:
    """Dates per block: as many as _BLOCK_DOUBLES holds, at least one."""
    return max(1, _BLOCK_DOUBLES // (n * (n - 1) // 2 + n * w))


def _band_cells(w: int, band: int | None) -> int:
    """Table cells the DTW kernel sweeps for one pair of width-w windows
    under `band`: w^2 without one."""
    b = w if band is None else band
    return sum(min(w, i + b) - max(1, i - b) + 1 for i in range(1, w + 1))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int | None, blocks: int, work: int) -> int:
    """Resolve the worker count: `threads`, or 1 for None or 0, capped by
    the blocks of dates and by the usable CPUs, so no request starts more
    threads than can run at once; and 1 where a block's DTW work, in table
    cells, is below _POOL_MIN_WORK."""
    n = min(_check_int(threads, "threads", 0, none_ok=True) or 1, blocks, _usable_cpus())
    return n if work >= _POOL_MIN_WORK else 1


def run(panel: PricePanel, config: PipelineConfig | None = None, threads: int | None = None) -> RunResult:
    """Run the full per-day analysis over a panel.

    The panel needs at least window_w + 1 dates so that one differential step
    exists. Panels with missing cells are resolved with `config.fill_policy`
    first. Every date in `config.snapshot_dates` must be an analyzable date,
    one with a full trailing window. `threads` > 1 runs the DTW kernel calls
    of the blocks of dates in a pool of that many threads, at most one per
    block and per usable CPU, and none where a block's DTW work is too small
    to repay the handoff; the result, and every error and warning, is that
    of the single-worker run. None or 0 threads runs one worker; a negative
    or non-integer count raises.
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
    n, days = panel.n_assets, panel.n_dates - w + 1
    span = min(_block_span(n, w), days)
    work = span * n * (n - 1) // 2 * _band_cells(w, config.band_halfwidth)
    return _run_days(panel, config, span, _worker_count(threads, -(-days // span), work))


def _run_days(panel: PricePanel, config: PipelineConfig, span: int, workers: int) -> RunResult:
    """The rows and snapshots of every analyzable date. This thread z-scores
    each block of `span` dates and reads its metrics, in date order; the block's
    kernel call runs inline with one worker, else in a pool of `workers`
    threads with at most `workers` + 1 calls outstanding. Each date's
    differential is taken against the date before it, so the first row has
    none."""
    n, w, band = panel.n_assets, config.window_w, config.band_halfwidth
    ids = panel.asset_ids  # one tuple, shared by every snapshot
    pairs = _pair_indices(n)
    ii, jj = pairs
    signs = np.array([[float(a.direction)] for a in panel.assets])
    result = RunResult()
    in_flight = deque()  # (first date index, the block's distances, its kernel call)
    prev = None

    def finish(start, dist):
        """Append the block's rows, and the snapshots of the dates that want one."""
        nonlocal prev
        end_dates = panel.dates[start : start + len(dist)]
        rows, at, starts = day_metrics(
            end_dates, n, pairs, dist, prev,
            config.cooc_threshold, config.diff_threshold, config.hub_min_degree,
        )
        result.metrics.extend(rows)
        starts = starts.tolist()
        days = len(rows)
        for d, (end_date, row) in enumerate(zip(end_dates, rows)):
            if config.wants_snapshot(end_date):
                # copies, so a snapshot holds its own edges and not the block's
                runs = range(d, 3 * days if row.has_differential else days, days)
                positions = [at[starts[q] : starts[q + 1]].copy() for q in runs]
                for p in positions:
                    p.setflags(write=False)
                result.snapshots[end_date] = DaySnapshot(end_date, ids, *positions)
        prev = dist[-1]

    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for start in range(w - 1, panel.n_dates, span):
            stop = min(start + span, panel.n_dates)
            Z = np.ascontiguousarray(_zscored(panel, start, stop, w, signs).transpose(0, 2, 1))
            dist = np.empty((stop - start, ii.size))
            if pool is None:
                _pair_distances(Z, ii, jj, band, dist)
                del Z  # a block's windows live no longer than its kernel call
                finish(start, dist)
                continue
            # One block waits queued behind the running calls, so a thread that
            # finishes one starts the next without waiting for this thread. The
            # oldest block's call returns before the next is handed out, and
            # its metrics are read after, while the threads run.
            oldest = in_flight.popleft() if len(in_flight) > workers else None
            if oldest is not None:
                oldest[2].result()
            in_flight.append((start, dist, pool.submit(_pair_distances, Z, ii, jj, band, dist)))
            del Z
            if oldest is not None:
                finish(*oldest[:2])
        for start, dist, call in in_flight:
            call.result()
            finish(start, dist)
    return result
