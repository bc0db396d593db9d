from datetime import date, datetime, timedelta

import numpy as np
import pytest

from conftest import graph_metrics_row
from market_rewire import (
    Graph,
    PipelineConfig,
    SignedGraph,
    Shock,
    SynthSpec,
    generate,
    run,
)


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


def test_env_var_caps_threads(shock_panel, monkeypatch):
    monkeypatch.setenv("MARKET_REWIRE_THREADS", "2")
    capped = run(shock_panel, threads=8)
    monkeypatch.delenv("MARKET_REWIRE_THREADS")
    plain = run(shock_panel)
    assert capped.metrics == plain.metrics


def test_negative_threads_rejected(shock_panel):
    with pytest.raises(ValueError, match="threads must be >= 0"):
        run(shock_panel, threads=-5)
    assert run(shock_panel, threads=0).metrics == run(shock_panel, threads=None).metrics


def test_env_var_validated(shock_panel, monkeypatch):
    monkeypatch.setenv("MARKET_REWIRE_THREADS", "lots")
    with pytest.raises(ValueError, match="MARKET_REWIRE_THREADS"):
        run(shock_panel)


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
    with pytest.raises(ValueError, match="^snapshot_dates entries must be datetime.date, got ") as exc:
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
        monkeypatch.setattr(cls, "__post_init__", lambda self, init=init: (built.append(self.end_date), init(self)))
    run(shock_panel)
    assert built == []
    chosen = [shock_panel.dates[25], shock_panel.dates[40]]
    run(shock_panel, PipelineConfig(snapshot_dates=chosen), threads=2)
    assert sorted(built) == sorted(chosen * 2)


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
