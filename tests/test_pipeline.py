import gc
import multiprocessing
import os
import tracemalloc
import warnings
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from conftest import graph_metrics_row
from market_rewire import (
    DaySnapshot,
    Graph,
    PipelineConfig,
    SignedGraph,
    Shock,
    SynthSpec,
    count_hubs,
    generate,
    run,
)
from market_rewire import pipeline
from market_rewire.pipeline import _worker_count


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


def test_worker_count_caps_a_huge_request_without_forking(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the resolver forked"))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    assert _worker_count(100_000, 41) == 8
    assert _worker_count(100_000, 3) == 3
    assert _worker_count(np.int64(3), 41) == 3
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _worker_count(100_000, 41) == 1


def test_run_without_fork_is_serial(shock_panel, monkeypatch):
    serial = run(shock_panel, threads=1)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without the fork start method"))
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
