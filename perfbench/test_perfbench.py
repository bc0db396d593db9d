"""Tests of the benchmark itself, on small shapes of each workload.

Run with: python -m pytest perfbench
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from harness import measure, set_up, trace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BackfillWide, HistoryCli  # noqa: E402

import market_rewire.pipeline as pipeline_module  # noqa: E402
from market_rewire import DistanceMatrix  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

COUNTS = (
    "dtw.pairs",
    "dtw.cells",
    "dtw.batch_bytes_computed",
    "networks.cooc_edges",
    "networks.diff_edges",
    "cli.files_written",
    "cli.bytes_written",
    "ingest.cells_filled",
    "ingest.bytes_read",
    "preprocess.windows",
    "preprocess.constant_windows",
)

SMALL = {
    "backfill_wide": lambda seed, d: BackfillWide(seed, d, n_assets=12, n_days=30),
    "history_cli": lambda seed, d: HistoryCli(seed, d, n_assets=6, n_days=120, shock_days=10),
}


def traced_metrics(name, seed, tmp_path):
    wl = SMALL[name](seed, tmp_path / "work")
    set_up(wl, HERE.parent / "src")
    ck = Checker()
    metrics, _ = trace(wl, ck, tmp_path / "spans.json")
    return wl, ck, metrics


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_for_a_fixed_seed(name, tmp_path):
    _, ck1, first = traced_metrics(name, 7, tmp_path / "a")
    _, ck2, second = traced_metrics(name, 7, tmp_path / "b")
    assert ck1.failed == ck2.failed == 0
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_reports_every_per_layer_metric(name, tmp_path):
    wl, ck, metrics = traced_metrics(name, 3, tmp_path)
    assert ck.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    days = wl.rows_per_call
    n = wl.n_assets
    assert metrics["dtw.pairs"] == days * n * (n - 1) // 2
    assert metrics["preprocess.windows"] == days * n
    shares = sum(metrics[f"{layer}.share"] for layer in ("ingest", "preprocess", "dtw", "networks", "pipeline", "cli"))
    # the rest of the traced wall time is the tracer's own counting
    assert 0.9 < shares <= 1.0
    if name == "history_cli":
        assert metrics["cli.files_written"] == 4 * wl.rows_per_call + 1
        assert metrics["ingest.cells_filled"] == int((wl.raw != wl.raw).sum())
    else:
        assert metrics["cli.files_written"] == metrics["cli.share"] == metrics["ingest.share"] == 0
    if wl.threads > 1:
        assert 1 <= metrics["pipeline.workers"] <= wl.threads
        assert 0 <= metrics["pipeline.pool_idle_frac"] < 1
    else:
        assert metrics["pipeline.workers"] == 1 and metrics["pipeline.pool_idle_frac"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_measured_pass_reports_every_end_to_end_metric(name, tmp_path):
    wl = SMALL[name](5, tmp_path / "work")
    ck = Checker()
    metrics, info = measure(wl, 0.0, set_up(wl, HERE.parent / "src"), ck)
    assert ck.failed == 0 and ck.attempted > info["samples"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_a_wrong_distance_matrix_fails_the_checks(tmp_path, monkeypatch):
    real = pipeline_module.distance_matrix

    def shifted(windows, band=None):
        dm = real(windows, band=band)
        return DistanceMatrix(dm.end_date, dm.asset_ids, dm.d * 0.5)

    monkeypatch.setattr(pipeline_module, "distance_matrix", shifted)
    wl = SMALL["backfill_wide"](5, tmp_path / "work")
    ck = Checker()
    measure(wl, 0.0, set_up(wl, HERE.parent / "src"), ck)
    assert ck.failed > 0


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return 1

    def parent():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("dtw.distance_matrix", lambda: leaf())
    wrapped_parent = tracer.wrap("pipeline.run", parent)
    wrapped_parent()
    st = tracer.self_times()
    inc = tracer.inclusive_times()
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert st["pipeline.run"] + st["dtw.distance_matrix"] == pytest.approx(inc["pipeline.run"])
    assert tracer.wall() == inc["pipeline.run"]


def test_pool_tasks_are_children_of_the_pool_span():
    tracer = Tracer()
    with tracer.installed():
        with pipeline_module.ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(lambda x: x * 2, range(4))) == [0, 2, 4, 6]
    assert pipeline_module.ThreadPoolExecutor is ThreadPoolExecutor
    pool_span, *tasks = tracer.spans
    assert pool_span.name == "pipeline.pool" and pool_span.parent is None
    assert [(t.name, t.parent) for t in tasks] == [("pipeline.task", 0)] * 4
    assert all(pool_span.start <= t.start <= t.end <= pool_span.end for t in tasks)
