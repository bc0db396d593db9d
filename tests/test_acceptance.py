"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import math
import time
from contextlib import contextmanager
from datetime import date

import numpy as np
import pytest

from market_rewire import (
    DistanceMatrix,
    PricePanel,
    Shock,
    SynthSpec,
    cooccurrence_network,
    differential_network,
    distance_matrix,
    dtw_distance,
    generate,
    graph_based_entropy,
    run,
    windows_at,
)
from market_rewire.cli import main
from market_rewire.export import metrics_csv_text

from conftest import dtw_bruteforce


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] {number}. {name}: FAIL")
        raise
    print(f"[acceptance] {number}. {name}: PASS")


def metrics_by_panel_index(result, w=20):
    return {w - 1 + i: m for i, m in enumerate(result.metrics)}


def test_criterion_1_dtw_oracle_equivalence():
    with criterion(1, "DTW oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240614)
        for _ in range(500):
            p = rng.integers(-9, 10, size=rng.integers(1, 7)).tolist()
            q = rng.integers(-9, 10, size=rng.integers(1, 7)).tolist()
            assert dtw_distance(p, q) == dtw_bruteforce(p, q)
        for _ in range(200):
            p = rng.uniform(-5, 5, size=rng.integers(1, 7))
            q = rng.uniform(-5, 5, size=rng.integers(1, 7))
            assert abs(dtw_distance(p, q) - dtw_bruteforce(p, q)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_gbe_analytic_cases():
    with criterion(2, "GBE analytic cases"):
        def comps(*sizes):
            return [{f"c{i}_{j}" for j in range(s)} for i, s in enumerate(sizes)]

        assert graph_based_entropy(comps(3, 3)) == 1.0
        assert abs(graph_based_entropy(comps(4, 2)) - 0.918295834054) < 1e-9
        assert graph_based_entropy(comps(49)) == 0.0
        for n in (2, 3, 10, 49):
            assert abs(graph_based_entropy(comps(*([1] * n))) - math.log2(n)) < 1e-9


def test_criterion_3_strict_threshold_semantics():
    with criterion(3, "strict threshold semantics"):
        ids = ("a", "b", "c")
        d = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        dm = DistanceMatrix(end_date=date(2020, 1, 1), asset_ids=ids, d=d)
        assert cooccurrence_network(dm, 2.0).edges == frozenset()
        d2 = d.copy()
        d2[0, 1] = d2[1, 0] = 1.99
        dm2 = DistanceMatrix(end_date=date(2020, 1, 1), asset_ids=ids, d=d2)
        assert cooccurrence_network(dm2, 2.0).edges == {("a", "b")}

        diff = np.zeros((3, 3))
        diff[0, 1] = diff[1, 0] = 1.0
        diff[0, 2] = diff[2, 0] = -1.0
        sg = differential_network(diff, 1.0, ids, date(2020, 1, 1))
        assert sg.red_edges == frozenset() and sg.blue_edges == frozenset()
        diff[0, 1] = diff[1, 0] = 1.0000001
        diff[0, 2] = diff[2, 0] = -1.0000001
        sg = differential_network(diff, 1.0, ids, date(2020, 1, 1))
        assert sg.red_edges == {("a", "b")} and sg.blue_edges == {("a", "c")}


def test_criterion_4_shock_scenario_signature():
    with criterion(4, "synthetic shock scenario (entropy trough + closer-hub burst)"):
        start = time.perf_counter()
        spec = SynthSpec(
            n_assets=20,
            n_days=260,
            seed=42,
            shocks=[Shock(start_day=150, end_day=190, factor_loading=0.95)],
        )
        result = run(generate(spec))
        by = metrics_by_panel_index(result)

        def over(lo, hi, attr):
            vals = [getattr(by[i], attr) for i in range(lo, hi + 1) if i in by]
            return [v for v in vals if v is not None]

        # (a) entropy during the shock dips below anything seen at baseline
        in_shock_min = min(over(150, 190, "gbe"))
        baseline_min = min(over(40, 149, "gbe"))
        assert in_shock_min < baseline_min

        # (b) closer hubs burst at onset and exceed the baseline maximum
        onset_max = max(over(148, 165, "n_closer_hubs"))
        baseline_max = max(over(40, 147, "n_closer_hubs"))
        assert onset_max >= 3
        assert onset_max > baseline_max

        # (c) entropy recovers above its in-shock minimum within 40 days
        recovery = [by[i].gbe for i in range(191, 231) if i in by]
        assert any(g > in_shock_min for g in recovery)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"shock scenario took {elapsed:.1f}s"


def test_criterion_5_scale_shift_direction_invariances():
    with criterion(5, "scale/shift/direction invariances"):
        spec = SynthSpec(
            n_assets=10, n_days=50, seed=3, shocks=[Shock(30, 45, 0.9)]
        )
        panel = generate(spec)
        base_csv = metrics_csv_text(run(panel).metrics)

        scaled_values = np.array(panel.values, copy=True)
        scaled_values[:, 2] *= 3.0
        scaled = PricePanel(dates=panel.dates, assets=panel.assets, values=scaled_values)
        assert metrics_csv_text(run(scaled).metrics) == base_csv

        shifted_values = np.array(panel.values, copy=True)
        shifted_values[:, 4] += 25.0
        shifted = PricePanel(dates=panel.dates, assets=panel.assets, values=shifted_values)
        assert metrics_csv_text(run(shifted).metrics) == base_csv

        # flipping one asset's direction: self-distances stay 0, the matrix
        # stays symmetric, and pairs not involving the flipped asset are
        # untouched
        flipped_meta = list(panel.assets)
        m0 = flipped_meta[0]
        from market_rewire import AssetMeta

        flipped_meta[0] = AssetMeta(m0.asset_id, m0.name, m0.asset_class, -m0.direction)
        flipped = PricePanel(dates=panel.dates, assets=flipped_meta, values=panel.values)
        for t in (19, 30, 49):
            dm = distance_matrix(windows_at(panel, t, 20))
            dm_flipped = distance_matrix(windows_at(flipped, t, 20))
            assert np.array_equal(dm_flipped.d, dm_flipped.d.T)
            assert np.all(np.diag(dm_flipped.d) == 0.0)
            np.testing.assert_array_equal(dm_flipped.d[1:, 1:], dm.d[1:, 1:])


@pytest.mark.usefixtures("pooled")
def test_criterion_6_determinism_and_symmetry(tmp_path):
    with criterion(6, "byte-identical outputs across worker counts; symmetric matrices"):
        src = tmp_path / "data"
        assert main([
            "gen-synthetic", "--assets", "12", "--days", "45", "--seed", "6",
            "--out", str(src), "--shock", "25:40:0.9",
        ]) == 0

        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"o{threads}"
            assert main([
                "run", "--input", str(src / "prices.csv"), "--meta", str(src / "assets.json"),
                "--out", str(out), "--snapshots", "all", "--threads", threads,
            ]) == 0
            outs.append(out)

        a, b = outs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        files_a = sorted(p.name for p in (a / "networks").iterdir())
        files_b = sorted(p.name for p in (b / "networks").iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (a / "networks" / name).read_bytes() == (b / "networks" / name).read_bytes()

        panel = generate(SynthSpec(n_assets=12, n_days=45, seed=6, shocks=[Shock(25, 40, 0.9)]))
        for t in range(19, panel.n_dates):
            dm = distance_matrix(windows_at(panel, t, 20))
            assert np.abs(dm.d - dm.d.T).max() <= 1e-12
            assert np.abs(np.diag(dm.d)).max() <= 1e-12


@pytest.mark.usefixtures("pooled")
def test_criterion_7_desk_scale_performance():
    with criterion(7, "desk-scale performance (49 assets x 250 days)"):
        panel = generate(SynthSpec(n_assets=49, n_days=250, seed=1))
        start = time.perf_counter()
        sequential = run(panel, threads=1)
        elapsed = time.perf_counter() - start
        assert len(sequential.metrics) == 231
        assert elapsed < 60.0, f"single-threaded run took {elapsed:.1f}s"

        parallel = run(panel, threads=4)
        assert parallel.metrics == sequential.metrics
        print(f"[acceptance]    49x250 single-threaded run: {elapsed:.2f}s")


def test_criterion_8_cli_round_trip(tmp_path):
    with criterion(8, "gen-synthetic -> run round trip"):
        src, out = tmp_path / "data", tmp_path / "out"
        assert main([
            "gen-synthetic", "--assets", "20", "--days", "260", "--seed", "42",
            "--out", str(src), "--shock", "150:190:0.95",
        ]) == 0
        assert main([
            "run", "--input", str(src / "prices.csv"), "--meta", str(src / "assets.json"),
            "--out", str(out),
        ]) == 0
        rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 260 - 20 + 1
