import csv
import json
import math
import os
import re
import tempfile
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest
from conftest import prices_csv_reference
from hypothesis import given, settings, strategies as st

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
    write_panel,
)
from market_rewire import _native, ingest
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


# whitespace that `str.strip` and `float` drop around a cell, Unicode's included
_SPACE = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2003", "\u2028", "\u3000"])
_ODD_CELLS = st.sampled_from(
    ["", "1_0", "0x1p3", "nan", "-NaN", "inf", "-Infinity", "1e400", "1e-400", "5e-324", "-0.0", "+.5",
     "\u0661\u0662\u0663", "\u0663.\u0665", "1.2.3", "abc", "1e", "1__0"]
)
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-10**20, 10**20).map(str)
# Most cells, dates and rows are good, so that many files parse: a choice
# from a list that repeats the good one (`one_of` takes each strategy once).
_CELL = st.tuples(_SPACE, st.sampled_from([_NUMBERS] * 8 + [_ODD_CELLS]).flatmap(lambda s: s), _SPACE).map("".join)
_DAYS = st.dates(date(2019, 12, 1), date(2020, 1, 31)).map(date.isoformat)
_BAD_DAYS = st.sampled_from(["2020-02-30", "2020/01/07", ""])
_DATE = st.tuples(_SPACE, st.sampled_from([_DAYS] * 10 + [_BAD_DAYS]).flatmap(lambda s: s), _SPACE).map("".join)
_ROW = st.sampled_from([3] * 10 + [0, 1, 2, 4]).flatmap(
    lambda k: st.builds(lambda d, cells: ",".join([d, *cells]), _DATE, st.lists(_CELL, min_size=k, max_size=k))
    if k
    else st.sampled_from(["", " ", ",,,", " ,\t, ,\u3000"])
)


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.sampled_from(["date,a,b,c", " date , a ,b,\u00a0c"]),
    st.lists(st.tuples(_ROW, st.sampled_from(["\n", "\r\n", "\r"])), max_size=6),
    st.booleans(),
)
def test_load_panel_reads_what_the_cell_by_cell_reference_reads(bom, header, rows, last_line_ended):
    """The contract that a faster parse must keep: `load_panel` gives the
    reference parser's dates and values, bit for bit, or its ValueError
    message, over cells with surrounding and Unicode whitespace, `1_0`,
    `0x1p3`, `nan`, `inf`, `1e400`, blanks and Arabic-Indic digits, and
    rows that are blank, ragged, duplicate or unsorted, with CR LF, CR or
    LF line ends and a byte-order mark."""
    text = header + "\n" + "".join(row + end for row, end in rows)
    if rows and not last_line_ended:
        text = text[: -len(rows[-1][1])]
    meta = [{"asset_id": i, "name": i, "asset_class": "stock", "direction": 1} for i in "abc"]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, meta_path = Path(tmp, "prices.csv"), Path(tmp, "assets.json")
        csv_path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        try:
            panel = load_panel(csv_path, meta_path)
            got = panel.dates, panel.values.tobytes()
        except ValueError as e:
            got = str(e)
        try:
            dates, values = prices_csv_reference(csv_path)
            expected = dates, values.tobytes()
        except ValueError as e:
            expected = str(e)
    assert got == expected


# cells that `float` reads and the compiled pass must read to the same bits:
# the extremes of the float range, zero signs, exponent spellings, leading
# zeros, an underflow to 0.0 and 400-digit mantissas
_EDGE_CELLS = st.sampled_from(
    ["5e-324", "2.225073858507201e-308", "1e308", "1.7976931348623157e308", "-0.0", "1E5", "1e+05", "007",
     "1e-400", "3." + "14159265358979323846" * 20, "1" * 400 + "e-390", "-" + "9" * 400 + "E-800"]
)
_DIGITS_17 = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
# mostly cells of the compiled subset, now and then one that is not (_ODD_CELLS
# has a few that are) or one with whitespace around it
_STRICT_CELL = st.sampled_from(
    [_NUMBERS] * 10 + [_DIGITS_17] * 3 + [_EDGE_CELLS] * 3 + [st.just("")] * 2 + [_ODD_CELLS, _CELL]
).flatmap(lambda s: s)
_STRICT_ROW_FAULTS = st.sampled_from(
    ["", ",,,", " ,\t, ,\u3000", "2020-01-09,1,2", "2020-01-09,1,2,3,4", "2020-02-30,1,2,3", "20200107,1,2,3",
     " 2020-01-09,1,2,3", "2020-1-09,1,2,3"]
)


@st.composite
def _strict_rows(draw):
    """Rows of a price CSV with ids a, b and c and their line ends: dates
    mostly increasing, as an exported history is, now and then reversed or
    with one repeated, and now and then a row or a line end outside the
    compiled subset."""
    days = sorted(draw(st.lists(st.dates(date(2019, 12, 1), date(2020, 1, 31)), max_size=6, unique=True)))
    order = draw(st.sampled_from(["increasing"] * 8 + ["reversed", "repeated"]))
    if order == "reversed":
        days.reverse()
    elif order == "repeated" and days:
        days.append(days[-1])
    rows = []
    for day in days:
        cells = draw(st.lists(_STRICT_CELL, min_size=3, max_size=3))
        row = ",".join([day.isoformat(), *cells])
        row = draw(st.sampled_from([st.just(row)] * 15 + [_STRICT_ROW_FAULTS]).flatmap(lambda s: s))
        rows.append((row, draw(st.sampled_from(["\n"] * 6 + ["\r\n"] * 4 + ["\r"]))))
    return rows


_STRICT_NUMBER = re.compile(r"[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _in_compiled_subset(text):
    """Whether a price CSV text, after its byte-order mark and with a valid
    header of three ids, is one the compiled pass reads: no quote and no
    lone CR, and at least one row, each a YYYY-MM-DD date that is a real
    day and three cells that are empty or plain finite numbers, the dates
    strictly increasing. Built from the rules, not from the pass."""
    if '"' in text or re.search("\r(?!\n)", text):
        return False
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    days = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4 or not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", cells[0]):
            return False
        try:
            days.append(date.fromisoformat(cells[0]))
        except ValueError:
            return False
        if any(c and not (_STRICT_NUMBER.fullmatch(c) and math.isfinite(float(c))) for c in cells[1:]):
            return False
    return bool(days) and all(a < b for a, b in zip(days, days[1:]))


def _read_both(csv_path, meta_path):
    """`load_panel`'s dates and value bits, or its ValueError message, and
    the same of the reference parser."""
    try:
        panel = load_panel(csv_path, meta_path)
        got = panel.dates, panel.values.tobytes()
    except ValueError as e:
        got = str(e)
    try:
        dates, values = prices_csv_reference(csv_path)
        expected = dates, values.tobytes()
    except ValueError as e:
        expected = str(e)
    return got, expected


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.sampled_from(["date,a,b,c", " date , a ,b,\u00a0c"]), _strict_rows(), st.booleans())
def test_the_compiled_pass_reads_what_the_reference_reads(bom, header, rows, last_line_ended):
    """Every file whose rows are in the compiled subset, and no other, takes
    the compiled pass where the library loaded, and `load_panel` gives the
    reference parser's dates and value bits, or its error, either way: over
    17-digit reprs, subnormals, the largest finite values, -0.0, exponent
    spellings, an underflow to 0.0 and 400-digit mantissas, and over the
    files outside the subset that blank, ragged, padded, reversed or
    repeated rows, bad dates or a lone CR put there."""
    text = header + "\n" + "".join(row + end for row, end in rows)
    if rows and not last_line_ended:
        text = text[: -len(rows[-1][1])]
    meta = [{"asset_id": i, "name": i, "asset_class": "stock", "direction": 1} for i in "abc"]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, meta_path = Path(tmp, "prices.csv"), Path(tmp, "assets.json")
        csv_path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8"))
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        compiled = ingest._read_compiled(csv_path) is not None
        got, expected = _read_both(csv_path, meta_path)
    assert compiled == (_native.lib is not None and _in_compiled_subset(text))
    assert got == expected


def test_a_panel_of_the_benchmark_shape_takes_the_compiled_path(tmp_path):
    """20 assets over 252 dates, with about 2% blank cells, as `write_panel`
    writes them: the shape of history_cli, whose ingest the compiled pass
    speeds up, so that a fallback cannot take the gain away unseen."""
    panel = generate(SynthSpec(n_assets=20, n_days=252, seed=1))
    values = np.array(panel.values)
    values[np.random.default_rng(1).random(values.shape) < 0.02] = np.nan
    csv_path, meta_path = write_panel(PricePanel(panel.dates, panel.assets, values), tmp_path)
    assert (ingest._read_compiled(csv_path) is not None) == (_native.lib is not None)
    got, expected = _read_both(csv_path, meta_path)
    assert got == expected
    assert np.isnan(values).mean() > 0.01


@pytest.mark.parametrize(
    "rows",
    [
        "2007-01-01,100,200\r2007-01-02,101,199\n",  # a lone CR
        "2007-01-01,100,200\r",
        "2007-01-01, 100,200\n",
        "2007-01-01,100,200\n , \n2007-01-02,101,199\n",
        "2007-01-01,100,200\n\n",
        *(f"2007-01-01,{cell},200\n" for cell in ["1.", ".5", "1_0", "0x1p3", "+inf", "nan", "1e400", "\u0661"]),
        "2007-01-01,100\n",
        "2020-02-30,100,200\n",
        "20200107,100,200\n",
        "2007-01-01,100,200\n2007-01-01,101,199\n",
        "2007-01-02,100,200\n2007-01-01,101,199\n",
    ],
)
def test_the_compiled_pass_refuses_a_file_outside_its_subset(tmp_path, rows):
    """Each rule of the subset refuses its file, which `load_panel` then reads
    as the reference does, to the same panel or the same error."""
    csv_path, meta_path = write_inputs(tmp_path, "")
    csv_path.write_bytes(("date,spx,jgb\n" + rows).encode("utf-8"))
    assert ingest._read_compiled(csv_path) is None
    got, expected = _read_both(csv_path, meta_path)
    assert got == expected


def test_the_compiled_pass_refuses_a_nul_byte(tmp_path):
    # csv.reader reads a NUL as a character from Python 3.11 on and fails
    # its line before that, so only the row of the error is common
    csv_path, meta_path = write_inputs(tmp_path, "")
    csv_path.write_bytes(b"date,spx,jgb\n2007-01-01,100\x00,200\n")
    assert ingest._read_compiled(csv_path) is None
    with pytest.raises(ValueError, match=": row 2: "):
        load_panel(csv_path, meta_path)


def test_the_compiled_pass_refuses_a_quoted_header_id(tmp_path):
    """`write_panel` quotes an id that holds a comma; `csv.reader` reads it."""
    panel = PricePanel(
        [date(2007, 1, 1), date(2007, 1, 2)],
        [AssetMeta("spx", "s", "stock", 1), AssetMeta("usd,jpy", "u", "fx", -1)],
        [[100.0, 110.5], [101.0, np.nan]],
    )
    csv_path, meta_path = write_panel(panel, tmp_path)
    assert ingest._read_compiled(csv_path) is None
    loaded = load_panel(csv_path, meta_path)
    assert (loaded.dates, loaded.assets) == (panel.dates, panel.assets)
    assert loaded.values.tobytes() == panel.values.tobytes()


@pytest.mark.parametrize(
    "text, limit",
    [
        ("date,spx,jgb\n2007-01-01,100.2512345,200\n", 10),
        ("date,spx,jgb\n2007-01-01,1,2\n", 9),
        ("date,spx,jgb        \n2007-01-01,1,2\n", 10),
    ],
)
def test_the_compiled_pass_refuses_a_field_past_the_csv_field_size_limit(tmp_path, text, limit):
    csv_path, meta_path = write_inputs(tmp_path, text)
    default = csv.field_size_limit(limit)
    try:
        assert ingest._read_compiled(csv_path) is None
        with pytest.raises(ValueError, match="row [12]: field larger than field limit"):
            load_panel(csv_path, meta_path)
    finally:
        csv.field_size_limit(default)
    assert ingest._read_compiled(csv_path) is not None or _native.lib is None


def test_the_compiled_pass_sizes_its_array_by_the_bytes_a_row_takes(tmp_path):
    # 20,000 ids over 200,000 blank lines: one row a line would ask for 30 GiB
    ids = [f"a{i}" for i in range(20_000)]
    meta = [{"asset_id": i, "name": i, "asset_class": "stock", "direction": 1} for i in ids]
    csv_path, meta_path = write_inputs(tmp_path, "", meta)
    csv_path.write_bytes(("date," + ",".join(ids) + "\n" + "\n" * 200_000).encode())
    assert ingest._read_compiled(csv_path) is None
    with pytest.raises(ValueError, match="no data rows$"):
        load_panel(csv_path, meta_path)


def test_the_compiled_pass_leaves_a_file_descriptor_to_the_parser(tmp_path):
    """A read through a descriptor uses it up, so the pass, which could not
    hand the file on after a refusal, does not take one."""
    csv_path, meta_path = write_inputs(tmp_path, "date,spx,jgb\n2007-01-01,100,200\n2007-01-02,101,\n")
    fd = os.open(csv_path, os.O_RDONLY)
    assert ingest._read_compiled(fd) is None
    panel = load_panel(fd, meta_path)
    dates, values = prices_csv_reference(csv_path)
    assert (panel.dates, panel.values.tobytes()) == (dates, values.tobytes())
