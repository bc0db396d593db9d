import dataclasses
import functools
import gc
import os
import re
import signal
import threading
import tracemalloc
import warnings
from datetime import date, datetime, timedelta
from fractions import Fraction

import numpy as np
import pytest

from conftest import build_panel, dtw_bruteforce, graph_metrics_row
from market_rewire import (
    DaySnapshot,
    DistanceMatrix,
    Graph,
    MetricsRow,
    PipelineConfig,
    RunResult,
    SignedGraph,
    Shock,
    StandardizedWindow,
    SynthSpec,
    count_hubs,
    generate,
    run,
)
from market_rewire import _native, pipeline
from market_rewire.export import metrics_csv_text
from market_rewire.pipeline import _POOL_MIN_WORK, _worker_count


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def shock_panel():
    return generate(
        SynthSpec(n_assets=8, n_days=60, seed=14, shocks=[Shock(35, 55, 0.95)])
    )


def test_row_count_and_first_row_differential_absent(panel_factory):
    rng = np.random.default_rng(2)
    panel = panel_factory(rng.uniform(90, 110, (25, 3)))
    result = run(panel, PipelineConfig())
    assert len(result.metrics) == 6  # 25 - 20 + 1
    first, *rest = result.metrics
    assert first.end_date == panel.dates[19]
    assert first.n_red_edges is None
    assert first.n_blue_edges is None
    assert first.n_closer_hubs is None
    assert first.n_farther_hubs is None
    assert not first.has_differential
    for row in rest:
        assert row.has_differential
        assert row.n_red_edges is not None


def test_metrics_dates_are_consecutive_panel_dates(shock_panel):
    result = run(shock_panel)
    w = PipelineConfig().window_w
    assert [m.end_date for m in result.metrics] == shock_panel.dates[w - 1 :]


def test_twin_assets_give_zero_gbe(panel_factory):
    rng = np.random.default_rng(10)
    walk = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 30)))
    panel = panel_factory(np.column_stack([walk, walk]))
    result = run(panel)
    for row in result.metrics:
        assert row.gbe == 0.0
        assert row.n_components == 1
        assert row.n_cooc_edges == 1


def test_insufficient_dates_states_minimum(panel_factory):
    panel = panel_factory(np.random.default_rng(0).uniform(90, 110, (20, 2)))
    with pytest.raises(ValueError, match="at least 21"):
        run(panel)


def test_determinism_bitwise(shock_panel):
    cfg = PipelineConfig(snapshot_dates="all")
    a = run(shock_panel, cfg)
    b = run(shock_panel, cfg)
    assert a.metrics == b.metrics
    assert a.snapshots == b.snapshots


def test_day_prefix_independence(panel_factory):
    rng = np.random.default_rng(31)
    values = rng.uniform(80, 120, (40, 4))
    full = run(panel_factory(values))
    truncated = run(panel_factory(values[:30]))
    # rows for shared dates are identical, including differential fields
    assert full.metrics[: len(truncated.metrics)] == truncated.metrics


def test_asset_order_invariance(shock_panel):
    from market_rewire import PricePanel

    perm = [3, 0, 7, 1, 5, 2, 6, 4]
    permuted = PricePanel(
        dates=shock_panel.dates,
        assets=[shock_panel.assets[i] for i in perm],
        values=shock_panel.values[:, perm],
    )
    a = run(shock_panel)
    b = run(permuted)
    for ra, rb in zip(a.metrics, b.metrics):
        assert ra.gbe == rb.gbe
        assert ra.n_components == rb.n_components
        assert ra.n_cooc_edges == rb.n_cooc_edges
        assert ra.n_closer_hubs == rb.n_closer_hubs
        assert ra.n_farther_hubs == rb.n_farther_hubs


@pytest.mark.usefixtures("pooled")
def test_parallel_equals_sequential(shock_panel):
    cfg = PipelineConfig(snapshot_dates="all")
    seq = run(shock_panel, cfg, threads=1)
    par = run(shock_panel, cfg, threads=4)
    assert seq.metrics == par.metrics
    assert seq.snapshots == par.snapshots


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("action, count", [("always", 21), ("default", 1)])
def test_workers_relay_the_serial_runs_warnings(panel_factory, action, count):
    rng = np.random.default_rng(5)
    values = rng.uniform(90, 110, (40, 6))
    values[:, 3] = 100.37  # a stale quote: every window of asset 3 is constant
    panel = panel_factory(values)
    caught = {}
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter(action)
            run(panel, threads=threads)
        caught[threads] = [(w.category, str(w.message), w.filename, w.lineno) for w in log]
    assert len(caught[1]) == count
    assert caught[2] == caught[1]


@pytest.mark.usefixtures("pooled")
def test_worker_errors_name_the_serial_runs_asset_and_date(panel_factory):
    values = np.array([[100.0 + i, (-1) ** i * 1e308, 50.0 - i % 3] for i in range(12)])
    panel = panel_factory(values)
    cfg = PipelineConfig(window_w=5)
    messages = []
    for threads in (1, 2):
        with pytest.raises(ValueError, match="non-finite") as err:
            run(panel, cfg, threads=threads)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "'a01'" in messages[0] and str(panel.dates[4]) in messages[0]


@pytest.mark.usefixtures("pooled")
def test_a_failing_range_relays_the_warnings_issued_before_its_error(panel_factory):
    rng = np.random.default_rng(8)
    values = rng.uniform(90, 110, (20, 3))
    values[:, 2] = 100.37  # a constant window on every date
    values[14:, 1] = [(-1) ** i * 1e308 for i in range(6)]  # the window ending at index 14 overflows
    panel = panel_factory(values)
    cfg = PipelineConfig(window_w=5)
    seen = []
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as log, pytest.raises(ValueError, match="non-finite") as err:
            warnings.simplefilter("always")
            run(panel, cfg, threads=threads)
        seen.append((str(err.value), [(w.category, str(w.message), w.filename, w.lineno) for w in log]))
    assert len(seen[0][1]) == 10
    assert seen[1] == seen[0]


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("threads", [2, 3, 4, 8])
def test_every_range_boundary_row_equals_the_serial_row(threads, monkeypatch):
    # 23 dates at w = 20 leave 4 analyzable dates: from 3 workers on, with
    # one date queued behind them, every date is in flight at once
    panel = generate(SynthSpec(n_assets=8, n_days=23, seed=3))
    cfg = PipelineConfig(snapshot_dates="all", diff_threshold=0.5)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    serial = run(panel, cfg, threads=1)
    assert len(serial.metrics) == 4 and sum(r.n_red_edges or 0 for r in serial.metrics) > 0
    pooled = run(panel, cfg, threads=threads)
    assert pooled.metrics == serial.metrics
    assert pooled.snapshots == serial.snapshots
    # one id tuple for the run, and read-only positions
    first, *rest = pooled.snapshots.values()
    assert first.asset_ids == panel.asset_ids
    assert all(s.asset_ids is first.asset_ids for s in rest)
    with pytest.raises(ValueError):
        rest[-1].red_pairs[:1] = 0


def _reference_zscore(x):
    """A window's z-scores from `np.mean` and `np.std(ddof=1)`; a constant
    window, every value equal to the first or a zero std, gives zeros."""
    sd = np.std(x, ddof=1)
    if (x == x[0]).all() or sd == 0.0:
        return np.zeros_like(x)
    return (x - np.mean(x)) / sd


def _reference_run(values, directions, config):
    """Rows and snapshot edge positions of a run over the panel, straight
    from the panel and sharing no code with the library's run: a forward
    fill, the z-scores of each asset's window times its direction,
    conftest's brute-force DTW of every pair in `np.triu_indices` order,
    and conftest's union-find and degree counts."""
    values = np.array(values, dtype=float)
    for r in range(1, len(values)):
        values[r] = np.where(np.isnan(values[r]), values[r - 1], values[r])
    panel = build_panel(values, directions)
    ids, w, n = panel.asset_ids, config.window_w, values.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, snapshots, prev = [], {}, None
    for t in range(w - 1, len(values)):
        day = panel.dates[t]
        z = [_reference_zscore(values[t - w + 1 : t + 1, a]) * directions[a] for a in range(n)]
        dist = [dtw_bruteforce(z[i], z[j], config.band_halfwidth) for i, j in pairs]
        near = [p for p, d in enumerate(dist) if d < config.cooc_threshold]
        g = Graph(day, ids, [(ids[pairs[p][0]], ids[pairs[p][1]]) for p in near])
        sg, positions = None, [near]
        if prev is not None:
            change = [d - e for d, e in zip(dist, prev)]
            red = [p for p, c in enumerate(change) if c > config.diff_threshold]
            blue = [p for p, c in enumerate(change) if c < -config.diff_threshold]
            sg = SignedGraph(day, ids, *([(ids[pairs[p][0]], ids[pairs[p][1]]) for p in e] for e in (red, blue)))
            positions += [red, blue]
        rows.append(graph_metrics_row(g, sg, config.hub_min_degree))
        snapshots[day] = positions
        prev = dist
    return rows, snapshots


_REFERENCE_VALUES = np.random.default_rng(21).uniform(90, 110, (24, 5))
_REFERENCE_VALUES[:, 2] = 100.37  # a constant asset
_REFERENCE_VALUES[[4, 9, 10, 17], [0, 3, 3, 4]] = np.nan  # blanks, forward-filled
_REFERENCE_DIRECTIONS = [1, -1, 1, -1, 1]


def _reference_config(band):
    return PipelineConfig(
        window_w=6, cooc_threshold=5.0, diff_threshold=0.4, hub_min_degree=2,
        band_halfwidth=band, snapshot_dates="all",
    )


@functools.cache
def _reference(n, band):
    """`_reference_run` over the first n reference assets, once per (n, band):
    the brute-force DTW takes about 0.2 s a run."""
    return _reference_run(_REFERENCE_VALUES[:, :n], _REFERENCE_DIRECTIONS[:n], _reference_config(band))


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "n, band", [(5, None), (5, 0), (5, 9), (2, None)], ids=["unbanded", "band0", "band-past-w", "two-assets"]
)
def test_run_equals_a_scalar_reference(kernel, threads, n, band, request, monkeypatch):
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    rows, snapshots = _reference(n, band)
    panel = build_panel(_REFERENCE_VALUES[:, :n], _REFERENCE_DIRECTIONS[:n])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant asset's windows
        result = run(panel, _reference_config(band), threads=threads)
    assert 0 < sum(r.n_cooc_edges for r in rows) < len(rows) * n * (n - 1) // 2
    assert sum(r.n_red_edges or 0 for r in rows) > 0
    assert result.metrics == rows
    got = {d: [p.tolist() for p in (s.cooc_pairs, s.red_pairs, s.blue_pairs) if p is not None]
           for d, s in result.snapshots.items()}
    assert got == snapshots


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
def test_a_runs_columns_read_as_its_rows_and_snapshots(kernel, threads, request, monkeypatch):
    """A run keeps its metrics as columns and its snapshots as its blocks'
    edge arrays. Read, in blocks of four dates, they are the scalar
    reference's list of rows and dict of snapshots, with every date or
    with chosen ones: the first date, two of the second block and one of
    the fourth."""
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(4, 5, 6))
    rows, snapshots = _reference(5, None)
    panel = build_panel(_REFERENCE_VALUES, _REFERENCE_DIRECTIONS)
    dates = [r.end_date for r in rows]
    for wanted in ("all", [dates[0], dates[5], dates[6], dates[13]]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant asset's windows
            result = run(panel, dataclasses.replace(_reference_config(None), snapshot_dates=wanted), threads=threads)
        metrics = result.metrics
        assert type(metrics) is list and metrics == rows and len(metrics) == len(rows) == 19
        assert [metrics[i] for i in range(-1, len(rows))] == rows[-1:] + list(iter(metrics))
        assert result.metrics is metrics
        assert {type(v) for r in metrics for v in dataclasses.astuple(r)[1:]} == {float, int, type(None)}
        snaps = result.snapshots
        assert sorted(snaps) == (dates if wanted == "all" else wanted) and result.snapshots is snaps
        for d, positions in snaps.items():
            got = [p for p in (positions.cooc_pairs, positions.red_pairs, positions.blue_pairs) if p is not None]
            assert [p.tolist() for p in got] == snapshots[d]
            for p in got:
                with pytest.raises(ValueError, match="WRITEABLE"):
                    p.setflags(write=True)
        for missing in [panel.dates[0]] + ([] if wanted == "all" else [dates[1], dates[4]]):
            with pytest.raises(KeyError):
                snaps[missing]
        for name in ("metrics", "snapshots"):
            with pytest.raises(AttributeError):
                setattr(result, name, getattr(result, name))


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_builds_no_window_object_and_no_distance_matrix(shock_panel, threads, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a run built a {type(self).__name__}")

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    expected = run(shock_panel, PipelineConfig(snapshot_dates="all"))
    monkeypatch.setattr(StandardizedWindow, "__init__", refuse)
    monkeypatch.setattr(DistanceMatrix, "__post_init__", refuse)
    assert run(shock_panel, PipelineConfig(snapshot_dates="all"), threads=threads) == expected


def _block_doubles(dates: int, n: int, w: int) -> int:
    """A _BLOCK_DOUBLES that puts `dates` dates in a block of n assets at w."""
    return dates * (n * (n - 1) // 2 + n * w)


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dates", [1, 2, 3, 21])
def test_any_block_size_gives_the_one_block_runs_bytes(kernel, threads, dates, request, monkeypatch):
    """Each block's first date takes its differential against the last date
    of the block before, and the pool's unit is a block."""
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    panel = generate(SynthSpec(n_assets=8, n_days=30, seed=3, shocks=[Shock(18, 26, 0.9)]))
    cfg = PipelineConfig(window_w=10, diff_threshold=0.5, band_halfwidth=4, snapshot_dates="all")
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(21, 8, 10))
    whole = run(panel, cfg, threads=1)
    assert sum(r.n_red_edges or 0 for r in whole.metrics) > 0 and len(whole.metrics) == 21
    # one double short of a block one date longer
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(dates + 1, 8, 10) - 1)
    assert pipeline._block_span(8, 10) == dates
    got = run(panel, cfg, threads=threads)
    assert got.metrics == whole.metrics
    assert got.snapshots == whole.snapshots


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize(
    "dates", [16, 8, 10, 1], ids=["one-block", "warnings-in-both-blocks", "adjacent-blocks", "one-date-blocks"]
)
def test_block_warnings_and_error_come_in_date_order(panel_factory, dates, monkeypatch):
    values = np.random.default_rng(8).uniform(90, 110, (20, 3))
    values[6:14, 2] = 100.37  # the windows ending on dates 10 .. 13 are constant
    values[14:, 1] = [(-1) ** i * 1e308 for i in range(6)]  # those from date 14 on overflow
    panel = panel_factory(values)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(dates, 3, 5))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as log, pytest.raises(ValueError) as err:
            warnings.simplefilter("always")
            run(panel, PipelineConfig(window_w=5), threads=threads)
        assert [(w.category, str(w.message)) for w in log] == [
            (UserWarning, "constant window: standardized values set to zero")
        ] * 4
        assert {(w.filename, w.lineno) for w in log} == {(log[0].filename, log[0].lineno)}
        assert log[0].filename == pipeline.__file__
        assert str(err.value) == (
            f"non-finite mean or standard deviation in the window of asset 'a01' ending {panel.dates[14]} "
            "(a missing value, or magnitudes that overflow)"
        )


# The three tests above run on the compiled kernel where it loaded, which
# z-scores a block inside its kernel call; these run them again on the numpy
# kernel, which z-scores with numpy.
@pytest.mark.usefixtures("numpy_kernel")
def test_numpy_kernel_worker_errors_name_the_serial_runs_asset_and_date(panel_factory):
    test_worker_errors_name_the_serial_runs_asset_and_date(panel_factory)


@pytest.mark.usefixtures("numpy_kernel")
def test_numpy_kernel_relays_the_warnings_issued_before_a_failing_ranges_error(panel_factory):
    test_a_failing_range_relays_the_warnings_issued_before_its_error(panel_factory)


@pytest.mark.usefixtures("numpy_kernel")
@pytest.mark.parametrize("dates", [16, 8, 10, 1])
def test_numpy_kernel_block_warnings_and_error_come_in_date_order(panel_factory, dates, monkeypatch):
    test_block_warnings_and_error_come_in_date_order(panel_factory, dates, monkeypatch)


def _warned_and_raised(panel, config, threads):
    """The warnings, as (category, message, filename, line), and the error
    message of a run that raises."""
    with warnings.catch_warnings(record=True) as log, pytest.raises(ValueError) as err:
        warnings.simplefilter("always")
        run(panel, config, threads=threads)
    return [(w.category, str(w.message), w.filename, w.lineno) for w in log], str(err.value)


@pytest.mark.usefixtures("c_kernel", "pooled")
@pytest.mark.parametrize("dates", [16, 3, 1])
def test_both_kernels_warn_and_raise_alike(panel_factory, dates, monkeypatch):
    """The same warnings, with the same filename and line, and the same error
    on the compiled and the numpy kernel, at one and at two workers."""
    values = np.random.default_rng(8).uniform(90, 110, (20, 3))
    values[6:14, 2] = 100.37
    values[14:, 1] = [(-1) ** i * 1e308 for i in range(6)]
    panel = panel_factory(values)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(dates, 3, 5))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    config = PipelineConfig(window_w=5)
    seen = [_warned_and_raised(panel, config, threads) for threads in (1, 2)]
    monkeypatch.setattr(_native, "lib", None)
    seen += [_warned_and_raised(panel, config, threads) for threads in (1, 2)]
    assert len(seen[0][0]) == 4
    assert seen[1:] == seen[:1] * 3


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_a_failing_block_after_later_ones_were_handed_out(panel_factory, kernel, request, monkeypatch):
    """A block with a non-finite window raises the serial run's error even
    when the blocks after it are already running, and none of their
    constant windows gives a warning."""
    request.getfixturevalue(kernel)
    values = np.random.default_rng(3).uniform(90, 110, (20, 3))
    values[2:8, 2] = 100.37  # the windows ending on dates 6 and 7 are constant
    values[10, 1] = 1e308  # those ending on dates 10 .. 14 overflow
    values[8:20, 0] = 70.0  # and those ending on dates 12 .. 19 are constant
    panel = panel_factory(values)
    config = PipelineConfig(window_w=5)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(1, 3, 5))  # a date a block
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    serial = _warned_and_raised(panel, config, 1)
    pools = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", _recording_pool(pools))
    assert _warned_and_raised(panel, config, 2) == serial
    assert [message for _, message, _, _ in serial[0]] == ["constant window: standardized values set to zero"] * 2
    assert serial[1] == (
        f"non-finite mean or standard deviation in the window of asset 'a01' ending {panel.dates[10]} "
        "(a missing value, or magnitudes that overflow)"
    )
    # the blocks of dates 11 .. 13 were handed out before date 10's was read
    [pool] = pools
    assert pool.calls == 13 - 4 + 1


def test_a_long_runs_peak_memory_does_not_grow_with_its_dates():
    """A block holds a bounded number of dates: beyond the rows the result
    keeps, a 20-asset run traces the same peak at 2,000 dates as at 500."""

    def held_beyond_the_result(days):
        panel = generate(SynthSpec(n_assets=20, n_days=days, seed=4))
        run(panel)  # the cached pair indices
        gc.collect()
        tracemalloc.start()
        try:
            result = run(panel)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.metrics) == days - 19
        return peak - kept

    assert held_beyond_the_result(2000) <= held_beyond_the_result(500) + 64 * 1024


@pytest.fixture
def alarm():
    """Fail a test that takes over a minute, as a hung wait would."""

    def hung(signum, frame):
        raise TimeoutError("the run hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _wide_panel(bad_from: int, bad_to: int):
    """150 assets x 40 dates whose asset 1 overflows in dates bad_from ..
    bad_to - 1, so the windows ending there raise while earlier dates'
    11,175-pair kernel calls are in flight."""
    values = np.random.default_rng(4).uniform(90, 110, (40, 150))
    values[bad_from:bad_to, 1] = [(-1) ** i * 1e308 for i in range(bad_to - bad_from)]
    return build_panel(values)


@pytest.mark.usefixtures("alarm", "pooled")
def test_an_error_in_the_callers_range_after_a_child_with_a_large_result(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    panel = _wide_panel(36, 40)  # w = 5: the last dates fail
    config = PipelineConfig(window_w=5, snapshot_dates="all")
    with pytest.raises(ValueError, match="non-finite") as serial:
        run(panel, config)
    with pytest.raises(ValueError, match="non-finite") as pooled:
        run(panel, config, threads=2)
    assert str(pooled.value) == str(serial.value)


@pytest.mark.usefixtures("alarm", "pooled")
def test_an_error_in_the_first_range_before_a_child_blocked_on_a_full_pipe(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    panel = _wide_panel(5, 8)  # w = 5: the second date fails
    config = PipelineConfig(window_w=5, snapshot_dates="all")
    with pytest.raises(ValueError, match="non-finite") as serial:
        run(panel, config)
    with pytest.raises(ValueError, match="non-finite") as pooled:
        run(panel, config, threads=3)
    assert str(pooled.value) == str(serial.value)


def test_worker_count_caps_a_huge_request_without_forking(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the resolver forked"))
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("the resolver started a thread"))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    big = _POOL_MIN_WORK
    assert _worker_count(100_000, 41, big) == 8
    assert _worker_count(100_000, 3, big) == 3
    assert _worker_count(np.int64(3), 41, big) == 3
    assert _worker_count(100_000, 41, big - 1) == 1


@pytest.mark.usefixtures("pooled")
def test_a_run_never_forks(shock_panel, monkeypatch):
    serial = run(shock_panel, PipelineConfig(snapshot_dates="all"), threads=1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a run forked"))
    monkeypatch.setattr(os, "pipe", lambda: pytest.fail("a run opened a pipe"))
    assert run(shock_panel, PipelineConfig(snapshot_dates="all"), threads=2) == serial


def _recording_pool(pools: list):
    """A ThreadPoolExecutor that appends itself to `pools` and records its
    `max_workers`, the calls submitted, the most outstanding at once
    (submitted and not yet returned) and the most running at once."""

    class RecordingPool(pipeline.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.max_workers = max_workers
            self.calls = self.outstanding = self.most_outstanding = self.running = self.most_running = 0
            self.lock = threading.Lock()
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            with self.lock:
                self.calls += 1
                self.outstanding += 1
                self.most_outstanding = max(self.most_outstanding, self.outstanding)

            def call():
                with self.lock:
                    self.running += 1
                    self.most_running = max(self.most_running, self.running)
                try:
                    return fn(*args, **kwargs)
                finally:
                    with self.lock:
                        self.running -= 1
                        self.outstanding -= 1

            return super().submit(call)

    return RecordingPool


def test_a_wide_run_keeps_at_most_one_date_queued_per_pool(shock_panel, monkeypatch):
    pools = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", _recording_pool(pools))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    values = np.random.default_rng(9).uniform(90, 110, (30, 100))
    panel = build_panel(values)
    # 11 dates in blocks of 2: six kernel calls, each over the cap
    span = pipeline._block_span(100, 20)
    assert span == 2 and span * 100 * 99 // 2 * 20 * 20 >= _POOL_MIN_WORK
    serial = run(panel, PipelineConfig(snapshot_dates="all"), threads=1)
    assert pools == []
    assert run(panel, PipelineConfig(snapshot_dates="all"), threads=8) == serial
    [pool] = pools
    assert pool.max_workers == 2 and pool.calls == 6
    # bounded memory: the two running calls and one queued behind them
    assert pool.most_running <= 2 and pool.most_outstanding <= 3
    assert pool.outstanding == 0
    # a block's DTW work below the cap runs on the calling thread
    assert run(shock_panel, threads=8).metrics == run(shock_panel, threads=1).metrics
    assert len(pools) == 1


def test_a_narrow_band_counts_only_the_cells_it_sweeps(monkeypatch):
    # unbanded, these blocks would be over the cap; at band 0 each pair
    # sweeps w cells, not w^2, and the handoff would cost more than it saves
    pools = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", _recording_pool(pools))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    panel = build_panel(np.random.default_rng(2).uniform(90, 110, (120, 100)))
    banded = run(panel, PipelineConfig(band_halfwidth=0), threads=2)
    assert pools == []
    assert banded.metrics == run(panel, PipelineConfig(band_halfwidth=0), threads=1).metrics
    assert pipeline._band_cells(20, 0) == 20 and pipeline._band_cells(20, None) == 400
    assert pipeline._band_cells(5, 1) == 13 and pipeline._band_cells(5, 4) == pipeline._band_cells(5, 9) == 25


def test_a_pairs_set_up_counts_toward_the_pool_bound(monkeypatch):
    # at band 1 a pair sweeps 58 cells and takes 80 more to set up: a
    # 200-asset date's cells alone are under the bound, its work is not
    pools = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", _recording_pool(pools))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    panel = build_panel(np.random.default_rng(2).uniform(90, 110, (22, 200)))
    pairs = 200 * 199 // 2
    assert pairs * pipeline._band_cells(20, 1) < _POOL_MIN_WORK <= pairs * pipeline._pair_work(20, 1)
    config = PipelineConfig(band_halfwidth=1)
    assert run(panel, config, threads=2).metrics == run(panel, config, threads=1).metrics
    assert len(pools) == 1 and pools[0].calls == 3


def test_negative_threads_rejected(shock_panel):
    with pytest.raises(ValueError, match="threads must be >= 0"):
        run(shock_panel, threads=-5)
    assert run(shock_panel, threads=0).metrics == run(shock_panel, threads=None).metrics


@pytest.mark.parametrize("threads", [2.5, True, "2", np.float64(2.0)])
def test_non_integer_threads_rejected(shock_panel, threads):
    # 2.5 used to run two workers, True one, and "2" raised a bare TypeError
    with pytest.raises(ValueError, match="^threads must be an integer or None, got "):
        run(shock_panel, threads=threads)


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
def test_snapshots_all_list_and_none(shock_panel, kernel, threads, request, monkeypatch):
    """Blocks of 5 dates put each chosen date inside a block, so that its
    snapshot is read off the middle of the block's edges."""
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(5, 8, 20))
    none = run(shock_panel, threads=threads)
    assert none.snapshots == {}

    every = run(shock_panel, PipelineConfig(snapshot_dates="all"), threads=threads)
    assert sorted(every.snapshots) == [m.end_date for m in every.metrics]
    first_date = every.metrics[0].end_date
    assert every.snapshots[first_date].differential is None
    later = every.metrics[5].end_date
    assert every.snapshots[later].differential is not None

    chosen = [every.metrics[3].end_date, every.metrics[8].end_date]
    some = run(shock_panel, PipelineConfig(snapshot_dates=chosen), threads=threads)
    assert sorted(some.snapshots) == sorted(chosen)
    for day in chosen:
        snap = some.snapshots[day]
        assert snap == every.snapshots[day]
        for p in (snap.cooc_pairs, snap.red_pairs, snap.blue_pairs):
            with pytest.raises(ValueError):
                p.setflags(write=True)



def test_snapshot_dates_from_a_generator(shock_panel):
    chosen = [shock_panel.dates[25], shock_panel.dates[40]]
    cfg = PipelineConfig(snapshot_dates=(d for d in chosen))
    assert cfg.snapshot_dates == frozenset(chosen)
    assert sorted(run(shock_panel, cfg).snapshots) == chosen
    # the config stays reusable: a second run still sees every date
    assert sorted(run(shock_panel, cfg).snapshots) == chosen


def test_unanalyzable_snapshot_dates_are_named(shock_panel):
    early, late = shock_panel.dates[3], shock_panel.dates[-1] + timedelta(days=1)
    cfg = PipelineConfig(snapshot_dates=[early, shock_panel.dates[30], late])
    with pytest.raises(ValueError, match="snapshot date") as exc:
        run(shock_panel, cfg)
    msg = str(exc.value)
    assert str(early) in msg and str(late) in msg
    assert str(shock_panel.dates[30]) not in msg.split("not among")[0]


def test_snapshot_dates_string_rejected():
    with pytest.raises(ValueError, match="snapshot_dates"):
        PipelineConfig(snapshot_dates="2020-01-02")
    # a non-iterable used to raise a bare TypeError
    with pytest.raises(ValueError, match="^snapshot_dates must be 'all', None or dates, not 5$"):
        PipelineConfig(snapshot_dates=5)


@pytest.mark.parametrize(
    "entries, bad",
    [
        (["2007-02-05"], "'2007-02-05'"),
        (["x", 3], "'x'"),
        ([date(2007, 2, 5), datetime(2007, 2, 6)], "datetime.datetime(2007, 2, 6, 0, 0)"),
        ([None], "None"),
    ],
)
def test_snapshot_dates_entries_must_be_dates(entries, bad):
    # a string entry used to fail later as "not among the analyzable dates",
    # and ["x", 3] with a bare TypeError from sorting
    with pytest.raises(ValueError, match="^snapshot_dates must be calendar dates, got ") as exc:
        PipelineConfig(snapshot_dates=entries)
    assert str(exc.value).endswith(bad)


def test_metrics_do_not_depend_on_snapshots(shock_panel):
    every = run(shock_panel, PipelineConfig(snapshot_dates="all"))
    assert run(shock_panel).metrics == every.metrics
    k = PipelineConfig().hub_min_degree
    for row in every.metrics:
        snap = every.snapshots[row.end_date]
        assert row == graph_metrics_row(snap.cooccurrence, snap.differential, k)


@pytest.mark.usefixtures("pooled")
def test_graphs_are_built_only_for_snapshot_dates(shock_panel, monkeypatch):
    built = []
    for cls in (Graph, SignedGraph):
        init = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, init=init: (built.append((type(self), self.end_date)), init(self))
        )
    run(shock_panel)
    chosen = [shock_panel.dates[25], shock_panel.dates[40]]
    result = run(shock_panel, PipelineConfig(snapshot_dates=chosen), threads=2)
    assert built == []
    snap = result.snapshots[chosen[1]]
    g, sg = snap.cooccurrence, snap.differential
    assert built == [(Graph, chosen[1]), (SignedGraph, chosen[1])]
    assert (g.end_date, g.nodes) == (sg.end_date, sg.nodes) == (chosen[1], shock_panel.asset_ids)


def test_snapshots_are_equal_only_with_the_same_edges(shock_panel):
    day = shock_panel.dates[40]
    snap = run(shock_panel, PipelineConfig(snapshot_dates=[day])).snapshots[day]
    wider = run(shock_panel, PipelineConfig(snapshot_dates=[day], diff_threshold=0.5)).snapshots[day]
    assert len(wider.red_pairs) + len(wider.blue_pairs) > len(snap.red_pairs) + len(snap.blue_pairs)
    assert snap != wider
    copies = [p.copy() for p in (snap.cooc_pairs, snap.red_pairs, snap.blue_pairs)]
    assert snap == DaySnapshot(day, shock_panel.asset_ids, *copies)
    assert snap != DaySnapshot(day, shock_panel.asset_ids, snap.cooc_pairs)
    with pytest.raises(ValueError):
        snap.cooc_pairs[:1] = 0


def test_a_built_result_takes_each_snapshot_under_its_own_date(shock_panel):
    """`RunResult(metrics, snapshots)` files a snapshot by its `end_date`:
    one keyed by another date, which the export would write under its own,
    or a value that is not a DaySnapshot raises a ValueError naming them."""
    days = shock_panel.dates[30], shock_panel.dates[31]
    snaps = run(shock_panel, PipelineConfig(snapshot_dates=days)).snapshots
    assert RunResult(snapshots=snaps).snapshots == snaps
    with pytest.raises(ValueError, match=f"snapshot of {days[1]} is filed under {days[0]}"):
        RunResult(snapshots={days[0]: snaps[days[1]]})
    for bad in (None, snaps[days[0]].cooccurrence):
        with pytest.raises(ValueError, match=f"a {type(bad).__name__} is filed under {days[0]}"):
            RunResult(snapshots={days[0]: bad})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_components", -1, "must be >= 0, got -1"),
        ("n_cooc_edges", -3, "must be >= 0, got -3"),
        ("n_red_edges", 1.5, "must be an integer, got 1.5"),
        ("n_closer_hubs", True, "must be an integer, got True"),
        ("n_blue_edges", 2.0, "must be an integer, got 2.0"),
    ],
)
def test_a_built_result_refuses_a_count_it_cannot_give_back(field, value, message):
    """The columns keep each count as a non-negative int64, -1 meaning
    absent, so a row whose count is negative, a bool or not an integer
    would read back as another row; it raises a ValueError naming the
    date and the field instead."""
    day = date(2020, 1, 2)
    good = MetricsRow(day, 0.5, 1, 3, 2, 2, 0, 0)
    assert RunResult([good]).metrics == [good]
    assert RunResult([MetricsRow(day, 0.5, 1, 3, np.int64(2), 2, 0, 0)]).metrics == [good]
    with pytest.raises(ValueError, match=f"^{day}: {field} {message}$"):
        RunResult([dataclasses.replace(good, **{field: value})])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_cooc_edges", 2**63, "n_cooc_edges must be below 2**63, got one of 64 bits"),
        ("gbe", "x", "gbe must be a finite real number, got 'x'"),
        ("gbe", 2**1100, "gbe must be a finite real number, got one past the largest float"),
        ("gbe", None, "gbe must be a finite real number, got None"),
        ("gbe", True, "gbe must be a finite real number, got True"),
        ("gbe", [1.0], "gbe must be a finite real number, got [1.0]"),
        ("gbe", float("inf"), "gbe must be a finite real number, got inf"),
        ("gbe", float("nan"), "gbe must be a finite real number, got nan"),
        ("end_date", "2020-01-02", "end_date must be calendar dates, got '2020-01-02'"),
        ("end_date", datetime(2020, 1, 2), "end_date must be calendar dates, got datetime.datetime(2020, 1, 2, 0, 0)"),
    ],
    ids=["count-2**63", "gbe-str", "gbe-2**1100", "gbe-None", "gbe-True", "gbe-list", "gbe-inf", "gbe-nan", "date-str", "date-datetime"],
)
def test_a_built_result_refuses_a_field_it_cannot_give_back_or_write(field, value, message):
    """A row's date must be a `date`, its gbe a finite real number and each
    count fit an int64; else the columns would read back another row, or
    the CSV or the charts would fail or go wrong later. Both conversions of
    hand-built rows raise a ValueError naming the date and the field."""
    day = date(2020, 1, 2)
    row = dataclasses.replace(MetricsRow(day, 0.5, 1, 3, 2, 2, 0, 0), **{field: value})
    message = re.escape(message if field == "end_date" else f"{day}: {message}")
    for convert in (RunResult, metrics_csv_text):
        with pytest.raises(ValueError, match=f"^{message}$"):
            convert([row])


@pytest.mark.usefixtures("pooled")
@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("band", [None, 2])
def test_a_runs_snapshots_pass_the_check_they_skip(shock_panel, kernel, threads, band, request, monkeypatch):
    """A run builds its snapshots unchecked, since it makes only read-only
    intp copies of sorted, distinct positions in range. Built again through
    the checked constructor, each is equal to the one the run made. Blocks
    of 5 dates give the pool 9 blocks."""
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(5, 8, 20))
    config = PipelineConfig(diff_threshold=0.5, band_halfwidth=band, snapshot_dates="all")
    snaps = list(run(shock_panel, config, threads=threads).snapshots.values())
    assert len(snaps) == len(shock_panel.dates) - 19 and snaps[0].red_pairs is None
    assert sum(len(s.red_pairs) for s in snaps[1:]) > 0 and sum(len(s.blue_pairs) for s in snaps[1:]) > 0
    for s in snaps:
        assert DaySnapshot(s.end_date, s.asset_ids, s.cooc_pairs, s.red_pairs, s.blue_pairs) == s
        for p in (s.cooc_pairs, s.red_pairs, s.blue_pairs):
            assert p is None or p.dtype == np.intp and not p.flags.writeable


def _retained_bytes(panel, config):
    """Bytes still allocated after `run` returns, while its result is held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(panel, config)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_snapshots_retain_at_most_16_bytes_per_edge():
    """A snapshot keeps its edges as positions in the upper triangle. Held as
    `Graph` and `SignedGraph` objects, the same run retained 103 bytes per
    edge."""
    panel = generate(SynthSpec(n_assets=100, n_days=60, seed=5, shocks=[Shock(30, 50, 0.9)]))
    run(panel, PipelineConfig(snapshot_dates="all"))  # fill the per-run caches first
    without, _ = _retained_bytes(panel, PipelineConfig())
    with_all, result = _retained_bytes(panel, PipelineConfig(snapshot_dates="all"))
    rows = result.metrics
    edges = sum(r.n_cooc_edges + (r.n_red_edges or 0) + (r.n_blue_edges or 0) for r in rows)
    assert edges > 1000 * len(rows)
    assert with_all - without <= 16 * edges + 2048 * len(rows)


def test_a_one_date_snapshot_keeps_at_most_its_blocks_edges(monkeypatch):
    """A run keeps a chosen date's edges as a read-only copy of its runs of
    its block's edge array, so a one-date snapshot keeps its own edges and
    not the rest of its block's."""
    panel = generate(SynthSpec(n_assets=20, n_days=80, seed=5, shocks=[Shock(40, 60, 0.9)]))
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", _block_doubles(10, 20, 20))
    config = PipelineConfig(snapshot_dates=[panel.dates[19 + 14]])  # inside the second block
    run(panel, config)  # fill the per-run caches first
    without, _ = _retained_bytes(panel, PipelineConfig())
    with_one, result = _retained_bytes(panel, config)
    row = result.metrics[14]
    own = row.n_cooc_edges + row.n_red_edges + row.n_blue_edges
    edges = sum(r.n_cooc_edges + r.n_red_edges + r.n_blue_edges for r in result.metrics[10:20])
    assert edges > 2 * own
    (snap,) = result.snapshots.values()
    assert snap.cooc_pairs.base.nbytes == np.dtype(np.intp).itemsize * own
    assert snap.red_pairs.base is snap.cooc_pairs.base and not snap.cooc_pairs.base.flags.writeable
    # beyond its own edges: its dates, flags and run starts, and tracing
    # noise; 468-1588 bytes over 30 runs on Python 3.11 with numpy 2.4
    assert with_one - without <= np.dtype(np.intp).itemsize * edges + 1536


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closer_hubs_name_the_shocked_assets(seed):
    """Around the onset of a shock that drives the even-indexed assets, those
    assets are closer hubs on more days than the others."""
    affected = tuple(range(0, 20, 2))
    panel = generate(
        SynthSpec(n_assets=20, n_days=260, seed=seed, shocks=[Shock(150, 190, 0.95, affected_assets=affected)])
    )
    days = panel.dates[148:166]
    result = run(panel, PipelineConfig(snapshot_dates=days))
    hub_days = dict.fromkeys(panel.asset_ids, 0)
    for d in days:
        for asset in count_hubs(result.snapshots[d].differential, 3).closer_hub_ids:
            hub_days[asset] += 1
    counts = [hub_days[a] for a in panel.asset_ids]
    hit = [counts[i] for i in affected]
    missed = [c for i, c in enumerate(counts) if i not in affected]
    assert np.mean(hit) > np.mean(missed)


def test_run_fills_missing_per_policy(panel_factory):
    rng = np.random.default_rng(12)
    values = rng.uniform(90, 110, (26, 3))
    holed = values.copy()
    holed[5, 1] = np.nan
    filled_first = run(panel_factory(holed), PipelineConfig(fill_policy="forward_fill"))
    explicit = values.copy()
    explicit[5, 1] = explicit[4, 1]
    direct = run(panel_factory(explicit))
    assert filled_first.metrics == direct.metrics


def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.window_w == 20
    assert cfg.cooc_threshold == 2.0
    assert cfg.diff_threshold == 1.0
    assert cfg.hub_min_degree == 3
    assert cfg.fill_policy == "forward_fill"
    assert cfg.band_halfwidth is None
    assert cfg.snapshot_dates is None


def test_config_validation():
    with pytest.raises(ValueError, match="window_w"):
        PipelineConfig(window_w=1)
    with pytest.raises(ValueError, match="cooc_threshold"):
        PipelineConfig(cooc_threshold=0.0)
    with pytest.raises(ValueError, match="diff_threshold"):
        PipelineConfig(diff_threshold=-1.0)
    with pytest.raises(ValueError, match="hub_min_degree"):
        PipelineConfig(hub_min_degree=0)
    with pytest.raises(ValueError, match="fill_policy"):
        PipelineConfig(fill_policy="zero")
    for band in (-1, 0.9, True, "2"):
        with pytest.raises(ValueError, match="band half-width"):
            PipelineConfig(band_halfwidth=band)
    assert PipelineConfig(band_halfwidth=np.int64(3)).band_halfwidth == 3


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("window_w", 20.5, "integer"),
        ("window_w", "20", "integer"),
        ("window_w", True, "integer"),
        ("hub_min_degree", 2.5, "integer"),
        ("hub_min_degree", True, "integer"),
        ("cooc_threshold", "2", "real number"),
        ("cooc_threshold", None, "real number"),
        ("diff_threshold", True, "real number"),
        ("diff_threshold", "1.0", "real number"),
    ],
)
def test_config_rejects_wrong_types(field, value, kind):
    # hub_min_degree=2.5 used to count hubs at degree >= 2.5, window_w="20"
    # raised TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an? {kind}, got"):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("field", ["cooc_threshold", "diff_threshold"])
@pytest.mark.parametrize(
    "value", [10**400, -(10**400), Fraction(10**400, 3), 10**5000], ids=["int", "negative", "fraction", "5001_digits"]
)
def test_config_rejects_a_threshold_no_float_holds(field, value):
    # let through, such a value raises a bare OverflowError inside numpy on
    # the run's first date
    with pytest.raises(ValueError, match=f"^{field} must be a real number that a float can hold"):
        PipelineConfig(**{field: value})


def test_config_accepts_numpy_numbers():
    cfg = PipelineConfig(
        window_w=np.int64(10), hub_min_degree=np.int32(2),
        cooc_threshold=np.float64(1.5), diff_threshold=1,
    )
    assert (cfg.window_w, cfg.hub_min_degree, cfg.cooc_threshold) == (10, 2, 1.5)


def test_shock_panel_dynamics(shock_panel):
    """The regime change shows up as a GBE trough and a closer-hub burst."""
    result = run(shock_panel)
    by_idx = {i + 19: m for i, m in enumerate(result.metrics)}
    calm = [by_idx[i].gbe for i in range(19, 35)]
    stressed = [by_idx[i].gbe for i in range(45, 56)]
    assert min(stressed) < min(calm)
    burst = max(
        by_idx[i].n_closer_hubs for i in range(35, 46) if by_idx[i].n_closer_hubs is not None
    )
    assert burst >= 3
