"""Byte-level goldens for the seed-42 shock year of demos/03_shock_detection.py.

The metrics CSV and the two SVG charts are the committed demo output; the
DOT and JSON snapshots of the first analyzable date and of the shock-onset
date live in tests/golden/.
Any change to the numerics (DTW, z-scoring, thresholds) that moves a single
edge or a single bit of entropy fails here.
"""

from pathlib import Path

import pytest

from conftest import graph_json_reference
from market_rewire import PipelineConfig, Shock, SynthSpec, generate, run
from market_rewire.export import export_graph, metrics_csv_text, write_charts

ROOT = Path(__file__).resolve().parent.parent
DEMO_OUT = ROOT / "demos" / "output" / "shock"
GOLDEN = Path(__file__).resolve().parent / "golden"
SHOCK_START = 150


@pytest.fixture(scope="module")
def shock_year():
    panel = generate(
        SynthSpec(
            n_assets=20,
            n_days=260,
            seed=42,
            shocks=[Shock(start_day=SHOCK_START, end_day=190, factor_loading=0.95)],
        )
    )
    first, onset = panel.dates[PipelineConfig().window_w - 1], panel.dates[SHOCK_START]
    result = run(panel, PipelineConfig(snapshot_dates="all"))
    classes = {m.asset_id: m.asset_class for m in panel.assets}
    return result, classes, first, onset


def test_metrics_csv_matches_committed_demo_output(shock_year):
    result, *_ = shock_year
    expected = (DEMO_OUT / "metrics.csv").read_bytes()
    assert metrics_csv_text(result.metrics).encode("utf-8") == expected


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_snapshots_match_goldens(shock_year, fmt):
    result, classes, first, onset = shock_year
    graphs = {
        f"{first.isoformat()}.cooc": result.snapshots[first].cooccurrence,
        f"{onset.isoformat()}.cooc": result.snapshots[onset].cooccurrence,
        f"{onset.isoformat()}.diff": result.snapshots[onset].differential,
    }
    assert result.snapshots[first].differential is None
    for name, g in graphs.items():
        expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
        assert export_graph(g, fmt, classes).encode("utf-8") == expected, name


def test_json_snapshots_equal_json_dumps_on_every_date(shock_year):
    result, classes, *_ = shock_year
    snaps = result.snapshots.values()
    graphs = [s.cooccurrence for s in snaps] + [s.differential for s in snaps if s.differential]
    assert len(graphs) == 2 * len(result.metrics) - 1
    for g in graphs:
        assert export_graph(g, "json", classes) == graph_json_reference(g, classes), g.end_date


def test_charts_match_committed_demo_output(shock_year, tmp_path):
    result, *_ = shock_year
    for path in write_charts(result, tmp_path):
        assert path.read_bytes() == (DEMO_OUT / path.name).read_bytes(), path.name
