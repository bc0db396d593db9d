"""Byte-level goldens for the seed-42 shock year of demos/03_shock_detection.py.

The metrics CSV and the two SVG charts are the committed demo output; the
DOT and JSON snapshots of the first analyzable date and of the shock-onset
date live in tests/golden/, with the SHA-256 of the CLI's whole output tree
for the same year (`cli_tree.sha256`). Every test checks the run through one
worker and through a pool of two threads, which is serial on a one-CPU
machine; the pool takes these 20-asset dates although their DTW work is
below the size at which a run would hand them out.
Any change to the numerics (DTW, z-scoring, thresholds) that moves a single
edge or a single bit of entropy fails here.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import graph_json_reference
from market_rewire import PipelineConfig, Shock, SynthSpec, generate, pipeline, run
from market_rewire.cli import main
from market_rewire.export import export_graph, metrics_csv_text, write_charts

ROOT = Path(__file__).resolve().parent.parent
DEMO_OUT = ROOT / "demos" / "output" / "shock"
GOLDEN = Path(__file__).resolve().parent / "golden"
SHOCK_START = 150
THREADS = (1, 2)  # worker counts each golden is checked at


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_POOL_MIN_WORK", 0)
        results = [run(panel, PipelineConfig(snapshot_dates="all"), threads=t) for t in THREADS]
    classes = {m.asset_id: m.asset_class for m in panel.assets}
    return results, classes, first, onset


def test_metrics_csv_matches_committed_demo_output(shock_year):
    results, *_ = shock_year
    expected = (DEMO_OUT / "metrics.csv").read_bytes()
    for threads, result in zip(THREADS, results):
        assert metrics_csv_text(result.metrics).encode("utf-8") == expected, threads


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_snapshots_match_goldens(shock_year, fmt):
    results, classes, first, onset = shock_year
    for threads, result in zip(THREADS, results):
        graphs = {
            f"{first.isoformat()}.cooc": result.snapshots[first].cooccurrence,
            f"{onset.isoformat()}.cooc": result.snapshots[onset].cooccurrence,
            f"{onset.isoformat()}.diff": result.snapshots[onset].differential,
        }
        assert result.snapshots[first].differential is None
        for name, g in graphs.items():
            expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
            assert export_graph(g, fmt, classes).encode("utf-8") == expected, (threads, name)


def test_json_snapshots_equal_json_dumps_on_every_date(shock_year):
    results, classes, *_ = shock_year
    for result in results:
        snaps = result.snapshots.values()
        graphs = [s.cooccurrence for s in snaps] + [s.differential for s in snaps if s.differential]
        assert len(graphs) == 2 * len(result.metrics) - 1
        for g in graphs:
            assert export_graph(g, "json", classes) == graph_json_reference(g, classes), g.end_date


def test_charts_match_committed_demo_output(shock_year, tmp_path):
    results, *_ = shock_year
    for threads, result in zip(THREADS, results):
        for path in write_charts(result, tmp_path):
            assert path.read_bytes() == (DEMO_OUT / path.name).read_bytes(), (threads, path.name)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under `root`, in sorted order of relative
    path: the path's UTF-8, a NUL, the file's bytes, a NUL."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.usefixtures("pooled")
def test_cli_output_tree_matches_golden_digest(tmp_path):
    """Every byte the CLI writes for the shock year: metrics.csv, both charts
    and the DOT and JSON snapshots of all 241 dates."""
    data = tmp_path / "data"
    gen = ["gen-synthetic", "--assets", "20", "--days", "260", "--seed", "42",
           "--shock", f"{SHOCK_START}:190:0.95", "--out", str(data)]
    assert main(gen) == 0
    expected = (GOLDEN / "cli_tree.sha256").read_text(encoding="ascii").strip()
    for threads in THREADS:
        out = tmp_path / f"out{threads}"
        argv = ["run", "--input", str(data / "prices.csv"), "--meta", str(data / "assets.json"),
                "--out", str(out), "--snapshots", "all", "--charts", "--threads", str(threads)]
        assert main(argv) == 0
        assert sum(1 for p in out.rglob("*") if p.is_file()) == 4 * 241 + 1
        assert tree_digest(out) == expected, threads
