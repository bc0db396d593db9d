"""Byte-level goldens for the seed-42 shock year of demos/03_shock_detection.py.

The metrics CSV is the committed demo output; the DOT and JSON snapshots of
the first analyzable date and of the shock-onset date live in tests/golden/.
Any change to the numerics (DTW, z-scoring, thresholds) that moves a single
edge or a single bit of entropy fails here.
"""

from pathlib import Path

import pytest

from market_rewire import PipelineConfig, Shock, SynthSpec, generate, run
from market_rewire.cli import export_graph, metrics_csv_text

ROOT = Path(__file__).resolve().parent.parent
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
    result = run(panel, PipelineConfig(snapshot_dates=[first, onset]))
    classes = {m.asset_id: m.asset_class for m in panel.assets}
    return result, classes, first, onset


def test_metrics_csv_matches_committed_demo_output(shock_year):
    result, *_ = shock_year
    expected = (ROOT / "demos" / "output" / "shock" / "metrics.csv").read_bytes()
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
