import gc
import os
import signal
import tracemalloc
import warnings
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from conftest import build_panel, graph_metrics_row
from market_rewire import (
    DaySnapshot,
    DistanceMatrix,
    Graph,
    PipelineConfig,
    SignedGraph,
    Shock,
    StandardizedWindow,
    SynthSpec,
    count_hubs,
    dtw_distance,
    generate,
    run,
    window_zscore,
)
from market_rewire import pipeline
from market_rewire.pipeline import _worker_count


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


def test_parallel_equals_sequential(shock_panel):
    cfg = PipelineConfig(snapshot_dates="all")
    seq = run(shock_panel, cfg, threads=1)
    par = run(shock_panel, cfg, threads=4)
    assert seq.metrics == par.metrics
    assert seq.snapshots == par.snapshots


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
    # two workers split dates 4..19 at 12, so the error ends the second range
    assert len(seen[0][1]) == 10
    assert seen[1] == seen[0]


@pytest.mark.parametrize("threads", [2, 3, 4, 8])
def test_every_range_boundary_row_equals_the_serial_row(threads, monkeypatch):
    # 23 dates at w = 20 leave 4 analyzable dates, so at 4 or more workers
    # every range is one date long and every later row is remade in the caller
    panel = generate(SynthSpec(n_assets=8, n_days=23, seed=3))
    cfg = PipelineConfig(snapshot_dates="all", diff_threshold=0.5)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    serial = run(panel, cfg, threads=1)
    assert len(serial.metrics) == 4 and sum(r.n_red_edges or 0 for r in serial.metrics) > 0
    forked = run(panel, cfg, threads=threads)
    assert forked.metrics == serial.metrics
    assert forked.snapshots == serial.snapshots
    # one id tuple for the run, and read-only positions, also where they
    # came back from a worker
    first, *rest = forked.snapshots.values()
    assert first.asset_ids == panel.asset_ids
    assert all(s.asset_ids is first.asset_ids for s in rest)
    with pytest.raises(ValueError):
        rest[-1].red_pairs[:1] = 0


def _reference_run(values, directions, config):
    """Rows and snapshot edge positions of a run over the panel, straight
    from the panel: a forward fill, `window_zscore` of each asset's window
    times its direction, the scalar `dtw_distance` of every pair in
    `np.triu_indices` order, and conftest's union-find and degree counts."""
    values = np.array(values, dtype=float)
    for r in range(1, len(values)):
        values[r] = np.where(np.isnan(values[r]), values[r - 1], values[r])
    panel = build_panel(values, directions)
    ids, w, n = panel.asset_ids, config.window_w, values.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, snapshots, prev = [], {}, None
    for t in range(w - 1, len(values)):
        day = panel.dates[t]
        z = [window_zscore(values[t - w + 1 : t + 1, a]) * directions[a] for a in range(n)]
        dist = [dtw_distance(z[i], z[j], config.band_halfwidth) for i, j in pairs]
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
    return panel, rows, snapshots


_REFERENCE_VALUES = np.random.default_rng(21).uniform(90, 110, (24, 5))
_REFERENCE_VALUES[:, 2] = 100.37  # a constant asset
_REFERENCE_VALUES[[4, 9, 10, 17], [0, 3, 3, 4]] = np.nan  # blanks, forward-filled


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "n, band", [(5, None), (5, 0), (5, 9), (2, None)], ids=["unbanded", "band0", "band-past-w", "two-assets"]
)
def test_run_equals_a_scalar_reference(kernel, threads, n, band, request, monkeypatch):
    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    values = _REFERENCE_VALUES[:, :n]
    directions = [1, -1, 1, -1, 1][:n]
    config = PipelineConfig(
        window_w=6, cooc_threshold=5.0, diff_threshold=0.4, hub_min_degree=2,
        band_halfwidth=band, snapshot_dates="all",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the constant asset's windows
        panel, rows, snapshots = _reference_run(values, directions, config)
        result = run(build_panel(values, directions), config, threads=threads)
    assert 0 < sum(r.n_cooc_edges for r in rows) < len(rows) * n * (n - 1) // 2
    assert sum(r.n_red_edges or 0 for r in rows) > 0
    assert result.metrics == rows
    got = {d: [p.tolist() for p in (s.cooc_pairs, s.red_pairs, s.blue_pairs) if p is not None]
           for d, s in result.snapshots.items()}
    assert got == snapshots


@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_builds_no_window_object_and_no_distance_matrix(shock_panel, threads, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a run built a {type(self).__name__}")

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    expected = run(shock_panel, PipelineConfig(snapshot_dates="all"))
    monkeypatch.setattr(StandardizedWindow, "__init__", refuse)
    monkeypatch.setattr(DistanceMatrix, "__post_init__", refuse)
    assert run(shock_panel, PipelineConfig(snapshot_dates="all"), threads=threads) == expected


def test_a_child_that_dies_without_a_result_is_named(shock_panel, monkeypatch):
    caller, run_days = os.getpid(), pipeline._run_days

    def die_in_the_first_range(panel, config, start, stop):
        if start == config.window_w - 1 and os.getpid() != caller:
            os._exit(1)
        return run_days(panel, config, start, stop)

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_run_days", die_in_the_first_range)
    # 60 dates at w = 20 split at index 39: the child runs dates 19 .. 38
    first, last = shock_panel.dates[19], shock_panel.dates[38]
    with pytest.raises(RuntimeError, match=f"^the worker process for dates {first} .. {last} ended without a result$"):
        run(shock_panel, threads=2)


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
    bad_to - 1, so the windows ending there raise; a range's result without
    them holds two 11,175-pair vectors, past a pipe's 64 kB buffer."""
    values = np.random.default_rng(4).uniform(90, 110, (40, 150))
    values[bad_from:bad_to, 1] = [(-1) ** i * 1e308 for i in range(bad_to - bad_from)]
    return build_panel(values)


@pytest.mark.usefixtures("alarm")
def test_an_error_in_the_callers_range_after_a_child_with_a_large_result(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    panel = _wide_panel(36, 40)  # w = 5: dates 4 .. 39 split at 22; the caller's range fails
    config = PipelineConfig(window_w=5, snapshot_dates="all")
    with pytest.raises(ValueError, match="non-finite") as serial:
        run(panel, config)
    with pytest.raises(ValueError, match="non-finite") as forked:
        run(panel, config, threads=2)
    assert str(forked.value) == str(serial.value)


@pytest.mark.usefixtures("alarm")
def test_an_error_in_the_first_range_before_a_child_blocked_on_a_full_pipe(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    panel = _wide_panel(5, 8)  # w = 5: dates 4 .. 39 split at 16 and 28; the first range fails
    config = PipelineConfig(window_w=5, snapshot_dates="all")
    with pytest.raises(ValueError, match="non-finite") as serial:
        run(panel, config)
    with pytest.raises(ValueError, match="non-finite") as forked:
        run(panel, config, threads=3)
    assert str(forked.value) == str(serial.value)


def test_worker_count_caps_a_huge_request_without_forking(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the resolver forked"))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    assert _worker_count(100_000, 41) == 8
    assert _worker_count(100_000, 3) == 3
    assert _worker_count(np.int64(3), 41) == 3
    monkeypatch.delattr(os, "fork")
    assert _worker_count(100_000, 41) == 1


def test_run_without_fork_is_serial(shock_panel, monkeypatch):
    serial = run(shock_panel, threads=1)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "pipe", lambda: pytest.fail("opened a pipe without os.fork"))
    assert run(shock_panel, threads=2).metrics == serial.metrics


def test_negative_threads_rejected(shock_panel):
    with pytest.raises(ValueError, match="threads must be >= 0"):
        run(shock_panel, threads=-5)
    assert run(shock_panel, threads=0).metrics == run(shock_panel, threads=None).metrics


@pytest.mark.parametrize("threads", [2.5, True, "2", np.float64(2.0)])
def test_non_integer_threads_rejected(shock_panel, threads):
    # 2.5 used to run two workers, True one, and "2" raised a bare TypeError
    with pytest.raises(ValueError, match="^threads must be an integer or None, got "):
        run(shock_panel, threads=threads)


def test_snapshots_all_list_and_none(shock_panel):
    none = run(shock_panel)
    assert none.snapshots == {}

    every = run(shock_panel, PipelineConfig(snapshot_dates="all"))
    assert sorted(every.snapshots) == [m.end_date for m in every.metrics]
    first_date = every.metrics[0].end_date
    assert every.snapshots[first_date].differential is None
    later = every.metrics[5].end_date
    assert every.snapshots[later].differential is not None

    chosen = [every.metrics[3].end_date, every.metrics[8].end_date]
    some = run(shock_panel, PipelineConfig(snapshot_dates=chosen))
    assert sorted(some.snapshots) == sorted(chosen)



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
