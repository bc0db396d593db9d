import json
from datetime import date, timedelta

import numpy as np
import pytest
from conftest import panel_csv_reference

from market_rewire import (
    AssetMeta,
    PipelineConfig,
    PricePanel,
    Shock,
    SynthSpec,
    cooccurrence_network,
    connected_components,
    distance_matrix,
    generate,
    graph_based_entropy,
    load_panel,
    windows_at,
    write_panel,
)


def test_same_seed_same_panel():
    spec = SynthSpec(n_assets=5, n_days=40, seed=77)
    a, b = generate(spec), generate(spec)
    assert a.dates == b.dates
    assert a.assets == b.assets
    np.testing.assert_array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = generate(SynthSpec(n_assets=5, n_days=40, seed=1))
    b = generate(SynthSpec(n_assets=5, n_days=40, seed=2))
    assert not np.array_equal(a.values, b.values)


def test_prices_strictly_positive():
    panel = generate(SynthSpec(n_assets=10, n_days=300, seed=3))
    assert (panel.values > 0).all()


def test_default_classes_cycle_with_direction_defaults():
    panel = generate(SynthSpec(n_assets=6, n_days=10, seed=0))
    assert [a.asset_class for a in panel.assets] == ["stock", "bond", "fx"] * 2
    assert [a.direction for a in panel.assets] == [1, -1, -1] * 2


def test_zero_loading_equals_no_shock_exactly():
    with_shock = generate(
        SynthSpec(n_assets=4, n_days=50, seed=9, shocks=[Shock(10, 40, 0.0)])
    )
    without = generate(SynthSpec(n_assets=4, n_days=50, seed=9))
    np.testing.assert_array_equal(with_shock.values, without.values)


def test_full_loading_collapses_distances_inside_shock():
    spec = SynthSpec(n_assets=6, n_days=80, seed=5, shocks=[Shock(30, 70, 1.0)])
    panel = generate(spec)
    # window fully inside the shock: direction-corrected shapes coincide
    dm = distance_matrix(windows_at(panel, t=60, w=20))
    off_diagonal = dm.d[np.triu_indices(6, k=1)]
    assert off_diagonal.max() < 1.0  # far below the 2.0 co-occurrence default
    g = cooccurrence_network(dm, PipelineConfig().cooc_threshold)
    comps = connected_components(g)
    assert len(comps) == 1
    assert graph_based_entropy(comps) == 0.0


def test_shock_affects_only_selected_assets():
    base = generate(SynthSpec(n_assets=4, n_days=60, seed=11))
    shocked = generate(
        SynthSpec(
            n_assets=4, n_days=60, seed=11, shocks=[Shock(20, 50, 0.9, affected_assets=(0, 2))]
        )
    )
    np.testing.assert_array_equal(base.values[:, 1], shocked.values[:, 1])
    np.testing.assert_array_equal(base.values[:, 3], shocked.values[:, 3])
    assert not np.array_equal(base.values[:, 0], shocked.values[:, 0])


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 2 assets"):
        generate(SynthSpec(n_assets=1, n_days=10, seed=0))
    with pytest.raises(ValueError, match="at least 2 days"):
        generate(SynthSpec(n_assets=3, n_days=1, seed=0))
    with pytest.raises(ValueError, match="outside"):
        generate(SynthSpec(n_assets=3, n_days=10, seed=0, shocks=[Shock(5, 10, 0.5)]))
    with pytest.raises(ValueError, match="factor_loading"):
        generate(SynthSpec(n_assets=3, n_days=10, seed=0, shocks=[Shock(2, 5, 1.5)]))
    with pytest.raises(ValueError, match="overlapping"):
        generate(
            SynthSpec(
                n_assets=3, n_days=20, seed=0, shocks=[Shock(2, 10, 0.5), Shock(8, 15, 0.5)]
            )
        )
    with pytest.raises(ValueError, match="out of range"):
        generate(
            SynthSpec(n_assets=3, n_days=20, seed=0, shocks=[Shock(2, 5, 0.5, (7,))])
        )
    with pytest.raises(ValueError, match="class_assignment"):
        generate(SynthSpec(n_assets=3, n_days=10, seed=0, class_assignment=("stock",)))
    with pytest.raises(ValueError, match="^unknown asset class 'crypto'$"):
        generate(SynthSpec(n_assets=3, n_days=10, seed=0, class_assignment=("stock", "crypto", "bond")))


def test_round_trip_through_csv(tmp_path):
    spec = SynthSpec(
        n_assets=5, n_days=30, seed=21, shocks=[Shock(10, 20, 0.8)]
    )
    panel = generate(spec)
    csv_path, meta_path = write_panel(panel, tmp_path)
    loaded = load_panel(csv_path, meta_path)
    assert loaded.dates == panel.dates
    assert loaded.assets == panel.assets
    np.testing.assert_array_equal(loaded.values, panel.values)


def test_write_panel_byte_deterministic(tmp_path):
    panel = generate(SynthSpec(n_assets=4, n_days=25, seed=33))
    c1, m1 = write_panel(panel, tmp_path / "one")
    c2, m2 = write_panel(panel, tmp_path / "two")
    assert c1.read_bytes() == c2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()


def test_write_panel_writes_the_cell_by_cell_bytes(tmp_path):
    """Each row's floats go through one `tolist`, and give the bytes of the
    cell-by-cell `repr(float(v))`: NaN blank, -0.0, the smallest subnormal,
    1e300 and integral floats kept as such."""
    values = np.array(
        [[1.0, np.nan, -0.0, 5e-324], [1e300, 100.0, np.nan, 0.1], [-2.5e-7, 3.0, 1 / 3, np.nan]]
    )
    metas = [AssetMeta(i, i, "stock", 1) for i in ("a", "b,c", "d", "e")]
    dates = [date(2020, 1, 2) + timedelta(days=d) for d in range(3)]
    for panel in (PricePanel(dates, metas, values), generate(SynthSpec(n_assets=4, n_days=25, seed=33))):
        csv_path, _ = write_panel(panel, tmp_path)
        assert csv_path.read_bytes() == panel_csv_reference(panel)
    assert b"1.0,,-0.0,5e-324\n" in panel_csv_reference(PricePanel(dates, metas, values))


def test_write_panel_round_trips_ids_that_need_quoting(tmp_path):
    # "a,b" used to be written unquoted and read back as two columns
    panel = generate(SynthSpec(n_assets=4, n_days=5, seed=3))
    ids = ("a,b", 'say "hi"', "\u00e9t\u00e9", "x\ny")
    metas = [AssetMeta(i, f"asset {k}", "stock", 1) for k, i in enumerate(ids)]
    odd = PricePanel(dates=panel.dates, assets=metas, values=panel.values)
    loaded = load_panel(*write_panel(odd, tmp_path))
    assert loaded.asset_ids == ids
    np.testing.assert_array_equal(loaded.values, odd.values)


@pytest.mark.parametrize("asset_id", ["a\rb", " x", "x ", "x\n"])
def test_ids_the_panel_csv_cannot_carry_are_rejected(tmp_path, asset_id):
    # "a\rb" was written unquoted and split the header row; " x" and "x "
    # were written as given but read back stripped, so no metadata matched
    with pytest.raises(ValueError, match=r"^asset_id .* must not have surrounding whitespace") as exc:
        AssetMeta(asset_id, "odd", "stock", 1)
    assert repr(asset_id) in str(exc.value)
    panel = generate(SynthSpec(n_assets=2, n_days=5, seed=3))
    csv_path, meta_path = write_panel(panel, tmp_path)
    records = json.loads(meta_path.read_text(encoding="utf-8"))
    records[0]["asset_id"] = asset_id
    meta_path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(ValueError, match="surrounding whitespace"):
        load_panel(csv_path, meta_path)
