import json
from datetime import date, datetime

import numpy as np
import pytest

from market_rewire import (
    AssetMeta,
    DistanceMatrix,
    Graph,
    PricePanel,
    Shock,
    SignedGraph,
    SynthSpec,
    apply_direction,
    cooccurrence_network,
    count_hubs,
    differential_network,
    fill_missing,
    generate,
    load_panel,
    windows_at,
)
from market_rewire.export import export_graph

META = [
    {"asset_id": "spx", "name": "US equities", "asset_class": "stock", "direction": 1},
    {"asset_id": "jgb", "name": "JP bonds", "asset_class": "bond", "direction": -1},
]


def write_inputs(tmp_path, csv_text, meta=META):
    csv_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "assets.json"
    csv_path.write_text(csv_text, encoding="utf-8")
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return csv_path, meta_path


def test_load_panel_basic(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path,
        "date,spx,jgb\n2007-01-01,100,200\n2007-01-02,101,199\n2007-01-03,102,198\n",
    )
    panel = load_panel(csv_path, meta_path)
    assert panel.n_dates == 3
    assert panel.n_assets == 2
    assert panel.asset_ids == ("spx", "jgb")
    assert panel.assets[1].direction == -1
    assert panel.dates == [date(2007, 1, 1), date(2007, 1, 2), date(2007, 1, 3)]
    np.testing.assert_array_equal(panel.values, [[100, 200], [101, 199], [102, 198]])


def test_load_panel_missing_meta_names_asset(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,gold\n2007-01-01,100,800\n"
    )
    with pytest.raises(ValueError, match="gold"):
        load_panel(csv_path, meta_path)


def test_load_panel_empty_header_column_names_its_position(tmp_path):
    # used to fail as "no metadata for asset(s): ", which names no asset
    csv_path, meta_path = write_inputs(tmp_path, "date,spx, ,jgb\n2007-01-01,100,1,200\n")
    with pytest.raises(ValueError, match="header column 3 has no asset id$"):
        load_panel(csv_path, meta_path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("when,spx\n2007-01-01,100\n", "first header column must be 'date'"),
        ("", "first header column must be 'date'"),
        ("date\n2007-01-01\n", "no asset columns in header"),
        ("date,spx, spx\n2007-01-01,100,100\n", "duplicate asset columns in header"),
        ("date,spx,jgb\n\n , \n", "no data rows"),
    ],
)
def test_load_panel_rejects_a_csv_without_its_header_or_rows(tmp_path, text, message):
    csv_path, meta_path = write_inputs(tmp_path, text)
    with pytest.raises(ValueError) as err:
        load_panel(csv_path, meta_path)
    assert str(err.value) == f"{csv_path}: {message}"


def test_load_panel_sorts_rows_by_date(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path,
        "date,spx,jgb\n2007-01-03,102,198\n2007-01-01,100,200\n2007-01-02,101,199\n",
    )
    panel = load_panel(csv_path, meta_path)
    assert panel.dates == sorted(panel.dates)
    np.testing.assert_array_equal(panel.values[:, 0], [100, 101, 102])


def test_load_panel_duplicate_date_rejected(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,100,200\n2007-01-01,101,199\n"
    )
    with pytest.raises(ValueError, match="duplicate date"):
        load_panel(csv_path, meta_path)


def test_load_panel_bad_date_names_row(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,100,200\nnot-a-date,101,199\n"
    )
    with pytest.raises(ValueError, match="row 3"):
        load_panel(csv_path, meta_path)


def test_load_panel_intraday_timestamp_rejected(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01T09:30:00,100,200\n"
    )
    with pytest.raises(ValueError, match="unparseable date"):
        load_panel(csv_path, meta_path)


def test_load_panel_bad_value_names_row_and_column(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,100,200\n2007-01-02,oops,199\n"
    )
    with pytest.raises(ValueError, match=r"row 3.*spx"):
        load_panel(csv_path, meta_path)


def test_load_panel_nonfinite_value_rejected(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,inf,200\n"
    )
    with pytest.raises(ValueError, match="non-finite"):
        load_panel(csv_path, meta_path)


def test_load_panel_empty_field_is_missing(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,100,200\n2007-01-02,,199\n"
    )
    panel = load_panel(csv_path, meta_path)
    assert not panel.is_complete()
    assert np.isnan(panel.values[1, 0])


def test_load_panel_deterministic(tmp_path):
    csv_path, meta_path = write_inputs(
        tmp_path, "date,spx,jgb\n2007-01-01,100.5,200.25\n2007-01-02,101,199\n"
    )
    a = load_panel(csv_path, meta_path)
    b = load_panel(csv_path, meta_path)
    assert a.dates == b.dates
    assert a.assets == b.assets
    np.testing.assert_array_equal(a.values, b.values)


def test_meta_validation(tmp_path):
    csv_path, _ = write_inputs(tmp_path, "date,spx,jgb\n2007-01-01,100,200\n")
    bad = tmp_path / "bad.json"

    bad.write_text(json.dumps([{"asset_id": "spx", "name": "x"}]), encoding="utf-8")
    with pytest.raises(ValueError, match="missing keys"):
        load_panel(csv_path, bad)

    bad.write_text(json.dumps(META + [META[0]]), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate asset_id"):
        load_panel(csv_path, bad)

    for direction in (2, True):
        entry = dict(META[0], direction=direction)
        bad.write_text(json.dumps([entry, META[1]]), encoding="utf-8")
        with pytest.raises(ValueError, match="direction"):
            load_panel(csv_path, bad)

    for raw, message in [
        ({"spx": META[0]}, "metadata must be a JSON array of asset records"),
        ([META[0], "jgb"], "entry 1 is not an object"),
    ]:
        bad.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_panel(csv_path, bad)
        assert str(err.value) == f"{bad}: {message}"



@pytest.mark.parametrize("key", ["asset_id", "name", "asset_class"])
@pytest.mark.parametrize("value", [None, True, 1.5, ["spx"], {"id": "spx"}])
def test_meta_text_field_of_another_json_type_names_entry_and_key(tmp_path, key, value):
    # str() would load these as 'None', 'True', "['spx']" and so on
    meta = [META[0], dict(META[1], **{key: value})]
    csv_path, meta_path = write_inputs(tmp_path, "date,spx,jgb\n2007-01-01,100,200\n", meta)
    with pytest.raises(ValueError, match=f"entry 1: {key} must be a string or an integer"):
        load_panel(csv_path, meta_path)


def test_meta_numeric_ticker_loads_as_text(tmp_path):
    meta = [dict(META[0], asset_id=7203, name=7203), META[1]]
    csv_path, meta_path = write_inputs(tmp_path, "date,7203,jgb\n2007-01-01,100,200\n", meta)
    asset = load_panel(csv_path, meta_path).assets[0]
    assert (asset.asset_id, asset.name) == ("7203", "7203")


def test_load_panel_stores_a_float_direction_as_int(tmp_path):
    meta = [dict(META[0], direction=1.0), dict(META[1], direction=-1.0)]
    csv_path, meta_path = write_inputs(tmp_path, "date,spx,jgb\n2007-01-01,100,200\n", meta)
    directions = [a.direction for a in load_panel(csv_path, meta_path).assets]
    assert directions == [1, -1]
    assert all(type(d) is int for d in directions)


def test_load_panel_accepts_utf8_byte_order_mark(tmp_path):
    # Excel writes "UTF-8 CSV" with a byte-order mark before the header
    text = "date,spx,jgb\n2007-01-01,100,200\n2007-01-02,101,\n"
    plain = load_panel(*write_inputs(tmp_path, text))
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    csv_path, meta_path = write_inputs(bom_dir, text)
    for path in (csv_path, meta_path):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with_bom = load_panel(csv_path, meta_path)
    assert with_bom.dates == plain.dates
    assert with_bom.assets == plain.assets
    np.testing.assert_array_equal(with_bom.values, plain.values)


def test_fill_forward(panel_factory):
    panel = panel_factory([[100.0, 1.0], [np.nan, 2.0], [102.0, 3.0]])
    filled = fill_missing(panel, "forward_fill")
    np.testing.assert_array_equal(filled.values[:, 0], [100.0, 100.0, 102.0])
    # non-missing cells untouched
    np.testing.assert_array_equal(filled.values[:, 1], [1.0, 2.0, 3.0])
    assert filled.is_complete()
    assert filled.dates == panel.dates


def test_fill_drop_date(panel_factory):
    panel = panel_factory([[100.0, 1.0], [np.nan, 2.0], [102.0, 3.0]])
    dropped = fill_missing(panel, "drop_date")
    assert dropped.n_dates == 2
    np.testing.assert_array_equal(dropped.values, [[100.0, 1.0], [102.0, 3.0]])


def test_fill_forward_missing_first_date_errors(panel_factory):
    panel = panel_factory([[np.nan, 1.0], [101.0, 2.0]])
    with pytest.raises(ValueError, match="no prior value"):
        fill_missing(panel, "forward_fill")


def test_fill_drop_date_that_drops_every_date_errors(panel_factory):
    panel = panel_factory([[np.nan, 1.0], [101.0, np.nan]])
    with pytest.raises(ValueError, match="^drop_date removed every date: no complete rows in panel$"):
        fill_missing(panel, "drop_date")


def test_fill_policy_validated(panel_factory):
    panel = panel_factory([[1.0], [2.0]])

    with pytest.raises(ValueError, match="fill policy"):
        fill_missing(panel, "interpolate")


def test_fill_forward_preserves_observed_cells(panel_factory):
    rng = np.random.default_rng(11)
    values = rng.uniform(50, 150, size=(30, 4))
    mask = rng.random((30, 4)) < 0.2
    mask[0, :] = False
    holed = np.where(mask, np.nan, values)
    filled = fill_missing(panel_factory(holed), "forward_fill")
    assert filled.is_complete()
    np.testing.assert_array_equal(filled.values[~mask], values[~mask])
    # every filled cell equals the most recent prior observation
    for r, c in zip(*np.nonzero(mask)):
        prior = values[:r, c][~mask[:r, c]]
        assert filled.values[r, c] == prior[-1]


def test_panel_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PricePanel(
            dates=[date(2020, 1, 2), date(2020, 1, 1)],
            assets=[AssetMeta("a", "A", "stock", 1)],
            values=np.zeros((2, 1)),
        )
    with pytest.raises(ValueError, match="calendar dates"):
        PricePanel(
            dates=[datetime(2020, 1, 1, 9, 30)],
            assets=[AssetMeta("a", "A", "stock", 1)],
            values=np.zeros((1, 1)),
        )
    with pytest.raises(ValueError, match="duplicate asset ids"):
        PricePanel(
            dates=[date(2020, 1, 1)],
            assets=[AssetMeta("a", "A", "stock", 1), AssetMeta("a", "B", "bond", -1)],
            values=np.zeros((1, 2)),
        )
    with pytest.raises(ValueError, match="shape"):
        PricePanel(
            dates=[date(2020, 1, 1)],
            assets=[AssetMeta("a", "A", "stock", 1)],
            values=np.zeros((2, 1)),
        )
    with pytest.raises(ValueError, match="^panel values must not contain infinities$"):
        PricePanel(
            dates=[date(2020, 1, 1)],
            assets=[AssetMeta("a", "A", "stock", 1)],
            values=[[-np.inf]],
        )


def test_panel_values_read_only(panel_factory):
    panel = panel_factory([[1.0], [2.0]])
    with pytest.raises(ValueError):
        panel.values[0, 0] = 99.0


def test_asset_meta_validation():
    for direction in (0, True, False):  # True == 1 must not pass as a sign
        with pytest.raises(ValueError, match="direction"):
            AssetMeta("a", "A", "stock", direction)
    with pytest.raises(ValueError, match="asset_class"):
        AssetMeta("a", "A", "crypto", 1)
    with pytest.raises(ValueError, match="^asset_id must be a non-empty string$"):
        AssetMeta("", "A", "stock", 1)


_D0 = date(2020, 1, 1)
_PANEL = generate(SynthSpec(n_assets=3, n_days=30, seed=0))
_DM = DistanceMatrix(_D0, ("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
_SG = SignedGraph(_D0, ("a", "b"), frozenset(), frozenset())


def _shocked(shock):
    return generate(SynthSpec(n_assets=3, n_days=30, seed=0, shocks=[shock]))


@pytest.mark.parametrize(
    "call, setting",
    [
        (lambda: generate(SynthSpec(n_assets=3.0, n_days=30, seed=0)), "n_assets"),
        (lambda: generate(SynthSpec(n_assets=3, n_days=30.5, seed=0)), "n_days"),
        (lambda: generate(SynthSpec(n_assets=3, n_days=30, seed=1.5)), "seed"),
        (lambda: _shocked(Shock(1.5, 5, 0.5)), "start_day"),
        (lambda: _shocked(Shock(True, 5, 0.5)), "start_day"),
        (lambda: _shocked(Shock(1, 5.0, 0.5)), "end_day"),
        (lambda: _shocked(Shock(1, 5, True)), "factor_loading"),
        (lambda: _shocked(Shock(1, 5, "0.5")), "factor_loading"),
        (lambda: _shocked(Shock(1, 5, 0.5, (0.5,))), "affected_assets"),
        (lambda: cooccurrence_network(_DM, True), "co-occurrence threshold"),
        (lambda: differential_network(np.zeros((2, 2)), True, ("a", "b"), date(2020, 1, 1)),
         "differential threshold"),
        (lambda: count_hubs(_SG, 2.5), "hub degree threshold"),
        (lambda: count_hubs(_SG, True), "hub degree threshold"),
        (lambda: windows_at(_PANEL, 25.0, 20), "date index"),
        (lambda: windows_at(_PANEL, 25, 20.0), "window width"),
        (lambda: apply_direction([1.0], True), "direction"),
        (lambda: generate(SynthSpec(3, 30, 0, shocks=None)), "shocks"),
        (lambda: generate(SynthSpec(3, 30, 0, shocks=Shock(1, 5, 0.5))), "shocks"),
        (lambda: Graph(_D0, "ab", ()), "nodes"),
        (lambda: Graph("2020-01-01", ("a", "b"), ()), "end_date"),
        (lambda: SignedGraph(_D0, "ab", (), ()), "nodes"),
        (lambda: SignedGraph("2020-01-01", ("a", "b"), (), ()), "end_date"),
        (lambda: DistanceMatrix(_D0, "ab", np.zeros((2, 2))), "asset_ids"),
        (lambda: DistanceMatrix("2020-01-01", ("a", "b"), np.zeros((2, 2))), "end_date"),
        (lambda: differential_network(np.zeros((2, 2)), 1.0, "ab", _D0), "asset_ids"),
        (lambda: differential_network(np.zeros((2, 2)), 1.0, ("a", "b"), "2020-01-01"), "end_date"),
        # ids that are not strings: export_graph used to raise AttributeError
        (lambda: export_graph(Graph(_D0, (1, 2), [(1, 2)]), "dot"), "nodes"),
        (lambda: SignedGraph(_D0, ("a", 2), (), ()), "nodes"),
        (lambda: DistanceMatrix(_D0, (1, 2), np.zeros((2, 2))), "asset_ids"),
        (lambda: differential_network(np.zeros((2, 2)), 1.0, (1, 2), _D0), "asset_ids"),
    ],
)
def test_entry_points_reject_settings_of_the_wrong_type(call, setting):
    # each case used to raise TypeError or IndexError, or to run with the
    # value rounded or read as 1 (count_hubs(sg, 2.5) counted degree >= 3);
    # a string of ids passed as its characters, and a string end_date
    # passed until export_graph called its isoformat
    with pytest.raises(ValueError, match=f"^{setting} .*must be"):
        call()
