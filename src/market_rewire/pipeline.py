"""Per-day orchestration: panel -> z-scored windows -> pair distances -> metrics.

For every date index t from window_w - 1 onward the pipeline z-scores and
direction-signs every asset's trailing window and computes the DTW distance
of every asset pair, in `np.triu_indices` order, in one block step
(`dtw._block_distances`): where the compiled library loaded, one kernel
call per block of dates does both, else `preprocess`'s numpy z-scores and
`dtw._pair_distances`. It reads the date's metrics straight off those
distances and, from the second analyzable date on, off their change from the
previous date's (`networks.day_metrics`). On the dates in
`PipelineConfig.snapshot_dates` it also keeps the positions of the date's
co-occurrence, red and blue pairs, as read-only slices of the block's
sorted edge positions (`DaySnapshot`). No window object, distance matrix
or graph is built on the way.

The dates go in blocks of consecutive dates, as many as _BLOCK_DOUBLES
holds (one date a block from 110 assets at w = 20 on): each step is one
array operation, or one kernel call, per block, and gives each date the
bytes it would give that date alone.

`_run_days` is the one day loop. With one worker it runs each block step
inline; with more it hands the steps to a pool of that many threads and
keeps at most one more block than that in flight; the compiled kernel
releases the GIL while it runs. Either way the calling thread only reads
each block's flags and metrics, in date order, so every constant-window
warning and non-finite error comes as in a serial run.
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

from .dtw import _block_distances, _pair_indices
from .ingest import FILL_POLICIES, PricePanel, _check_date, _check_ids, _check_int, _check_real, fill_missing
from .networks import Graph, MetricsRow, SignedGraph, _edge_search, _pair_edges, day_metrics
from .preprocess import _check_flags, _window_names


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
    position p is the pair `(asset_ids[ii[p]], asset_ids[jj[p]])`. The
    co-occurrence edges are in `cooc_pairs`, the differential ones in
    `red_pairs` and `blue_pairs`, both None on the first analyzable date.
    A snapshot is checked once, when built: a date, distinct str ids, and
    positions that are integers in 0 .. n(n-1)/2 - 1, none twice in a
    network; it keeps read-only intp copies. A run's snapshots, which share
    one `asset_ids` tuple, are built unchecked, from read-only slices of
    their block's edge positions, so each keeps that block's array alive.
    `cooccurrence` and `differential` build a `Graph` and a `SignedGraph`
    on each read.
    Snapshots are equal when their date, ids and edge positions are.
    """

    end_date: date
    asset_ids: tuple[str, ...]
    cooc_pairs: np.ndarray
    red_pairs: np.ndarray | None = None
    blue_pairs: np.ndarray | None = None

    def __post_init__(self):
        day, ids = self.end_date, _check_ids(self.asset_ids, "asset_ids")
        _check_date(day, "end_date")
        if len(set(ids)) < len(ids):
            raise ValueError(f"snapshot of {day}: asset id {next(i for i in ids if ids.count(i) > 1)!r} comes twice")
        if (self.red_pairs is None) != (self.blue_pairs is None):
            raise ValueError(f"snapshot of {day}: red_pairs and blue_pairs must both be given or both be None")
        object.__setattr__(self, "asset_ids", ids)
        m = len(ids) * (len(ids) - 1) // 2
        runs = []  # a differential position p as m + p, so a network's repeats are neighbours once sorted
        for k, name in enumerate(["cooc_pairs"] + ([] if self.red_pairs is None else ["red_pairs", "blue_pairs"])):
            p = np.asarray(getattr(self, name))
            if p.ndim != 1 or p.size and (p.dtype.kind not in "iu" or p.min() < 0 or p.max() >= m):
                raise ValueError(f"snapshot of {day}: edge positions must be integers in 0 .. {m - 1}")
            p = p.astype(np.intp)  # always a copy
            p.setflags(write=False)
            object.__setattr__(self, name, p)
            runs.append(p + m if k else p)
        at = np.sort(np.concatenate(runs))
        twice = at[1:][at[1:] == at[:-1]]
        if twice.size:
            raise ValueError(
                f"snapshot of {day}: edge position {twice[0] % m} comes twice (repeated in a run, or both red and blue)"
            )

    @classmethod
    def _unchecked(cls, *values) -> "DaySnapshot":
        """A snapshot of `values`, in field order, not checked: for a run's valid positions."""
        snap = object.__new__(cls)
        for name, value in zip(cls.__slots__, values + (None, None)):
            object.__setattr__(snap, name, value)
        return snap

    @property
    def cooccurrence(self) -> Graph:
        return Graph(self.end_date, self.asset_ids, _pair_edges(self.asset_ids, self.cooc_pairs))

    @property
    def differential(self) -> SignedGraph | None:
        if self.red_pairs is None:
            return None
        ids = self.asset_ids
        return SignedGraph(self.end_date, ids, _pair_edges(ids, self.red_pairs), _pair_edges(ids, self.blue_pairs))

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


# The least DTW work of a block of dates at which a run hands its blocks to
# a thread pool, counted per pair as the table cells its kernel call sweeps
# plus 4w for its set-up (2w window values copied in and 2(w + 1) row cells
# set; `_pair_work`): each handoff costs 0.1-0.2 ms, and the calling
# thread's own work slows while the pool threads share its cores. Time of
# threads=2, always pooled, over threads=1, fastest of 30 alternated calls
# (12 from 100 assets on) in each of three runs, 120 days at w = 20 (2-core
# AVX-512 Xeon VM, busy host), with each block z-scored in its kernel call:
# 1.10-1.44 at 20 assets (27 dates a block, 2.46M), 1.06-1.29 at 25
# (2.88M), 1.02-1.12 at 30 (3.13M), 0.85-0.99 at 40 (3.74M), 0.69-0.78 at
# 60 (4.25M), 0.70-0.83 at 80 (4.55M) and 0.63-0.73 at 110 (one date a
# block, 2.88M); with a band, 0.97-1.19 at 100 assets and band 0 (0.99M),
# 1.02-1.17 at 150 and band 0 (1.12M), 0.79-1.10 at 100 and band 2
# (1.72M), 0.86-0.98 at 200 and band 0 (1.99M) and 0.72-0.88 at 200 and
# band 1 (2.75M). The bound keeps 20-asset blocks and band-0 dates inline
# and pools 110-asset dates and 200-asset dates at band 1. A per-block
# bound cannot also keep 25 assets inline: their blocks hold as much work
# as a 110-asset date, but a run has few of them.
_POOL_MIN_WORK = 2_600_000

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


def _pair_work(w: int, band: int | None) -> int:
    """The DTW work of one pair of width-w windows under `band`: its table
    cells and 4w for its set-up, which outweighs the cells at narrow bands."""
    return _band_cells(w, band) + 4 * w


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int | None, blocks: int, work: int) -> int:
    """Resolve the worker count: `threads`, or 1 for None or 0, capped by
    the blocks of dates and by the usable CPUs, so no request starts more
    threads than can run at once; and 1 where a block's DTW work
    (`_pair_work` a pair) is below _POOL_MIN_WORK."""
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
    work = span * n * (n - 1) // 2 * _pair_work(w, config.band_halfwidth)
    return _run_days(panel, config, span, _worker_count(threads, -(-days // span), work))


def _run_days(panel: PricePanel, config: PipelineConfig, span: int, workers: int) -> RunResult:
    """The rows and snapshots of every analyzable date. Each block of `span`
    dates is z-scored and swept in one block step (`dtw._block_distances`),
    inline with one worker, else in a pool of `workers` threads with at most
    `workers` + 1 steps outstanding; this thread then reads each block's
    flags and metrics, in date order. Each date's differential is taken
    against the date before it, so the first row has none."""
    n, w = panel.n_assets, config.window_w
    ids = panel.asset_ids  # one tuple, shared by every snapshot
    pairs = _pair_indices(n)
    ii, jj = pairs
    signs = np.array([float(a.direction) for a in panel.assets])
    values = np.ascontiguousarray(panel.values)  # C order, which a column slice lacks
    block = _block_distances(values, signs, ii, jj, w, config.band_halfwidth)
    search = _edge_search(n, pairs)
    result = RunResult()
    in_flight = deque()  # (first date index, the block's arrays, the call filling them)
    prev = None

    def finish(start, arrays):
        """Issue the block's constant-window warnings and raise its
        non-finite error from its flags, as a serial run does; else append
        its rows, and the snapshots of the dates that want one."""
        nonlocal prev
        _, flags, dist = arrays
        _check_flags(flags, _window_names(panel, start), stacklevel=2)
        end_dates = panel.dates[start : start + len(dist)]
        rows, at, starts = day_metrics(
            end_dates, search, dist, prev,
            config.cooc_threshold, config.diff_threshold, config.hub_min_degree,
        )
        result.metrics.extend(rows)
        at.setflags(write=False)  # read-only, and so is every snapshot's slice of it
        starts = starts.tolist()
        days = len(rows)
        for d, (end_date, row) in enumerate(zip(end_dates, rows)):
            if config.wants_snapshot(end_date):
                runs = range(d, 3 * days if row.has_differential else days, days)
                positions = (at[starts[q] : starts[q + 1]] for q in runs)
                result.snapshots[end_date] = DaySnapshot._unchecked(end_date, ids, *positions)
        prev = dist[-1]

    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for start in range(w - 1, panel.n_dates, span):
            arrays, fill = block(start, min(span, panel.n_dates - start))
            if pool is None:
                fill()
                finish(start, arrays)
                continue
            # One block waits queued behind the running steps, so a thread that
            # finishes one starts the next without waiting for this thread. The
            # oldest block's step returns before the next is handed out, and
            # its metrics are read after, while the threads run.
            oldest = in_flight.popleft() if len(in_flight) > workers else None
            if oldest is not None:
                oldest[2].result()
            in_flight.append((start, arrays, pool.submit(fill)))
            if oldest is not None:
                finish(*oldest[:2])
        for start, arrays, call in in_flight:
            call.result()
            finish(start, arrays)
    return result
