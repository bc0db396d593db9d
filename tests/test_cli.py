import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import charts_reference, graph_json_reference, metrics_csv_reference
from market_rewire import (
    DaySnapshot,
    Graph,
    PipelineConfig,
    RunResult,
    Shock,
    SignedGraph,
    SynthSpec,
    generate,
    load_panel,
    run,
)
from market_rewire.cli import _build_parser, main
import market_rewire
from market_rewire import _native, dtw, export, networks, pipeline
from market_rewire.export import GRAPH_FORMATS, export_graph, metrics_csv_text
from market_rewire.ingest import ASSET_CLASSES, FILL_POLICIES
from market_rewire.networks import MetricsRow

D0 = date(2020, 5, 4)


def gen_args(out, assets=12, days=40, seed=100, shock="25:35:0.9"):
    args = ["gen-synthetic", "--assets", str(assets), "--days", str(days),
            "--seed", str(seed), "--out", str(out)]
    if shock:
        args += ["--shock", shock]
    return args


def run_args(src, out, extra=()):
    return [
        "run",
        "--input", str(src / "prices.csv"),
        "--meta", str(src / "assets.json"),
        "--out", str(out),
        *extra,
    ]


def read_metrics_rows(out):
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    header, rows = lines[0], lines[1:]
    assert header == "date,gbe,n_components,n_cooc_edges,n_red_edges,n_blue_edges,n_farther_hubs,n_closer_hubs"
    return rows


def test_gen_then_run_round_trip(tmp_path, capsys):
    src, out = tmp_path / "data", tmp_path / "out"
    assert main(gen_args(src)) == 0
    assert main(run_args(src, out)) == 0
    rows = read_metrics_rows(out)
    assert len(rows) == 40 - 20 + 1
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("analyzed 21 dates")
    assert "min GBE" in summary and "max closer hubs" in summary


def test_the_run_summary_names_the_first_date_of_each_extreme(tmp_path, capsys):
    """The summary line is the lowest GBE and the most closer hubs, each on
    the first date that has it, as `min` and `max` over the run's rows give
    them; on this panel both extremes come on several dates."""
    src = tmp_path / "data"
    assert main(gen_args(src, assets=6, days=50, seed=1, shock="20:35:1.0")) == 0
    rows = run(load_panel(src / "prices.csv", src / "assets.json")).metrics
    low = min(rows, key=lambda r: r.gbe)
    top = max((r for r in rows if r.n_closer_hubs is not None), key=lambda r: r.n_closer_hubs)
    assert [r.gbe for r in rows].count(low.gbe) > 1 and [r.n_closer_hubs for r in rows].count(top.n_closer_hubs) > 1
    capsys.readouterr()
    assert main(run_args(src, tmp_path / "out")) == 0
    assert capsys.readouterr().out == (
        f"analyzed {len(rows)} dates | min GBE {low.gbe:.4f} on {low.end_date} | "
        f"max closer hubs {top.n_closer_hubs} on {top.end_date}\n"
    )


def test_first_metrics_row_has_empty_differential_fields(tmp_path):
    src, out = tmp_path / "data", tmp_path / "out"
    main(gen_args(src))
    main(run_args(src, out))
    first = read_metrics_rows(out)[0]
    assert first.endswith(",,,,")  # red, blue, farther, closer all empty


def test_snapshots_none_writes_only_metrics(tmp_path):
    src, out = tmp_path / "data", tmp_path / "out"
    main(gen_args(src))
    assert main(run_args(src, out, ["--snapshots", "none"])) == 0
    assert (out / "metrics.csv").exists()
    assert not (out / "networks").exists()
    assert not (out / "gbe.svg").exists()


def test_snapshot_files_for_requested_dates(tmp_path):
    src, out = tmp_path / "data", tmp_path / "out"
    main(gen_args(src, days=30, shock="15:25:0.9"))
    assert main(run_args(src, out, ["--snapshots", "all", "--charts"])) == 0
    net = out / "networks"
    dates = [r.split(",")[0] for r in read_metrics_rows(out)]
    first, later = dates[0], dates[5]
    for fmt in ("dot", "json"):
        assert (net / f"{later}.cooc.{fmt}").exists()
        assert (net / f"{later}.diff.{fmt}").exists()
        # the first analyzable date has no differential network yet
        assert (net / f"{first}.cooc.{fmt}").exists()
        assert not (net / f"{first}.diff.{fmt}").exists()
    assert (out / "gbe.svg").exists()
    assert (out / "hubs.svg").exists()


def test_snapshot_date_list_and_format_choice(tmp_path):
    src, out = tmp_path / "data", tmp_path / "out"
    main(gen_args(src, days=30, shock="15:25:0.9"))
    main(run_args(src, out, ["--snapshots", "all"]))
    target = read_metrics_rows(out)[6].split(",")[0]

    out2 = tmp_path / "out2"
    assert main(run_args(src, out2, ["--snapshots", target, "--graph-format", "dot"])) == 0
    files = sorted(p.name for p in (out2 / "networks").iterdir())
    assert files == [f"{target}.cooc.dot", f"{target}.diff.dot"]


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--meta", "m.json", "--out", str(tmp_path)]) == 1  # missing --input
    assert main(gen_args(tmp_path, assets=1)) == 1  # need >= 2 assets
    assert main(gen_args(tmp_path, shock="9999:0")) == 1  # inverted interval
    assert main(gen_args(tmp_path, shock="abc")) == 1
    assert main(["run", "--input", "x", "--meta", "y", "--out", str(tmp_path),
                 "--snapshots", "2020-13-45"]) == 1
    assert main(["run", "--input", "x", "--meta", "y", "--out", str(tmp_path),
                 "--window", "1"]) == 1
    assert main(["run", "--input", "x", "--meta", "y", "--out", str(tmp_path),
                 "--band", "-1"]) == 1
    assert main(["run", "--input", "x", "--meta", "y", "--out", str(tmp_path),
                 "--threads", "-3"]) == 1
    err = capsys.readouterr().err
    assert "error [usage]" in err
    for args, message in [
        (["run", "--input", "x", "--meta", "y", "--out", str(tmp_path), "--snapshots", ","],
         "--snapshots: empty date list"),
        (gen_args(tmp_path, shock="1:x"), "--shock #1: expected start:end[:loading], got '1:x'"),
        (gen_args(tmp_path) + ["--classes", "1:1"],
         "--classes: expected stock:bond:fx ratio like 1:1:1, got '1:1'"),
        (gen_args(tmp_path) + ["--classes", "1:a:1"], "--classes: ratio parts must be integers, got '1:a:1'"),
    ]:
        assert main(args) == 1
        assert capsys.readouterr().err == f"error [usage]: {message}\n"


@pytest.mark.parametrize(
    "flags, config",
    [
        ([], PipelineConfig()),
        (["--window", "10", "--cooc-threshold", "1.5", "--diff-threshold", "0.5",
          "--hub-degree", "2", "--fill", "drop_date", "--band", "3", "--snapshots", "all"],
         PipelineConfig(10, 1.5, 0.5, 2, "drop_date", 3, "all")),
    ],
)
def test_run_flags_build_the_pipeline_config(tmp_path, monkeypatch, flags, config):
    # the CLI takes its defaults from PipelineConfig, so they cannot drift
    seen = []

    def fake_run(panel, config, threads):
        seen.append((config, threads))
        raise ValueError("stop once the config is built")

    monkeypatch.setattr("market_rewire.cli.load_panel", lambda csv_path, meta_path: None)
    monkeypatch.setattr("market_rewire.cli.run", fake_run)
    assert main(["run", "--input", "x", "--meta", "y", "--out", str(tmp_path), *flags]) == 2
    assert seen == [(config, None)]


def test_run_choices_are_the_library_lists():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices["run"]._actions}
    assert tuple(actions["fill_policy"].choices) == FILL_POLICIES
    assert tuple(actions["graph_format"].choices) == (*GRAPH_FORMATS, "both")


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--input", str(tmp_path / "nope.csv"),
               "--meta", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error [ingest]" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["csv", "utf8", "meta"])
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, bad):
    # a cell past the csv module's field limit raised _csv.Error, and deep
    # nesting a RecursionError from json: both exited 3 as internal errors;
    # a byte that is not UTF-8 exited 2 naming no file
    src = tmp_path / "data"
    main(gen_args(src, assets=3, days=30, shock=None))
    if bad == "csv":
        path = src / "prices.csv"
        path.write_text(path.read_text() + "2021-01-01,1," + "9" * (csv.field_size_limit() + 1) + ",1\n")
        message = f"{path}: row 32: field larger than field limit ({csv.field_size_limit()})"
    elif bad == "utf8":
        path = src / "prices.csv"
        path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n2021-01-01,1,\xff,1\n")
        message = f"{path}: not valid UTF-8 text (invalid start byte)"
    else:
        path = src / "assets.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        message = f"{path}: not valid JSON: maximum recursion depth exceeded"
    assert main(run_args(src, tmp_path / "out")) == 2
    assert capsys.readouterr().err.startswith(f"error [ingest]: {message}")


def test_gen_into_an_existing_file_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert main(gen_args(tmp_path / "taken")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [export]: ") and str(tmp_path / "taken") in err


def test_too_few_dates_exits_2_naming_pipeline(tmp_path, capsys):
    src = tmp_path / "data"
    main(gen_args(src, days=15, shock=None))
    rc = main(run_args(src, tmp_path / "out"))
    assert rc == 2
    assert "error [pipeline]" in capsys.readouterr().err



def test_first_row_blank_under_forward_fill_exits_2_naming_asset(tmp_path, capsys):
    src = tmp_path / "data"
    main(gen_args(src, assets=3, days=30, shock=None))
    csv = src / "prices.csv"
    lines = csv.read_text().split("\n")
    cells = lines[1].split(",")
    cells[2] = ""  # second asset, first date
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines))
    assert main(run_args(src, tmp_path / "out", ["--fill", "forward_fill"])) == 2
    err = capsys.readouterr().err
    assert "error [pipeline]" in err
    assert "bnd01" in err


def test_overflowing_window_exits_2_naming_asset_and_date(tmp_path, capsys):
    # a sample std of prices alternating +-1e308 overflows to inf; such a
    # window used to z-score to zeros and the run exited 0
    src = tmp_path / "data"
    src.mkdir()
    lines = ["date,a,b,c"]
    for i in range(8):
        lines.append(f"2020-01-{i + 1:02d},{100 + i},{(-1) ** i * 1e308},{50 - i % 3}")
    (src / "prices.csv").write_text("\n".join(lines) + "\n")
    (src / "assets.json").write_text(json.dumps([
        {"asset_id": a, "name": a, "asset_class": "stock", "direction": 1} for a in "abc"
    ]))
    assert main(run_args(src, tmp_path / "out", ["--window", "5"])) == 2
    err = capsys.readouterr().err
    assert "error [pipeline]" in err and "non-finite" in err
    assert "'b'" in err and "2020-01-05" in err
    assert not (tmp_path / "out").exists()


def test_unanalyzable_snapshot_date_exits_2(tmp_path, capsys):
    src = tmp_path / "data"
    main(gen_args(src, days=30, shock=None))
    first_date = (src / "prices.csv").read_text().split("\n")[1].split(",")[0]
    rc = main(run_args(src, tmp_path / "out", ["--snapshots", first_date]))
    assert rc == 2
    err = capsys.readouterr().err
    assert "error [pipeline]" in err and first_date in err

def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(gen_args(a)) == 0
    assert main(gen_args(b)) == 0
    assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()
    assert (a / "assets.json").read_bytes() == (b / "assets.json").read_bytes()


@pytest.mark.usefixtures("pooled")
def test_run_outputs_byte_stable_across_runs_and_thread_caps(tmp_path):
    src = tmp_path / "data"
    main(gen_args(src, days=35, shock="22:32:0.9"))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"

    assert main(run_args(src, out1, ["--snapshots", "all", "--charts", "--threads", "1"])) == 0
    assert main(run_args(src, out2, ["--snapshots", "all", "--charts", "--threads", "4"])) == 0

    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    names1 = sorted(p.name for p in (out1 / "networks").iterdir())
    names2 = sorted(p.name for p in (out2 / "networks").iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / "networks" / name).read_bytes() == (out2 / "networks" / name).read_bytes()
    assert (out1 / "gbe.svg").read_bytes() == (out2 / "gbe.svg").read_bytes()


def output_files(out):
    return {p.relative_to(out): p for p in sorted(out.rglob("*")) if p.is_file()}


def test_rerun_rewrites_every_file_in_place(tmp_path):
    src, fresh, rerun = tmp_path / "data", tmp_path / "fresh", tmp_path / "rerun"
    main(gen_args(src, days=30, shock="15:25:0.9"))
    extra = ["--snapshots", "all", "--charts"]
    umask = os.umask(0o002)
    try:
        assert main(run_args(src, fresh, extra)) == 0
    finally:
        os.umask(umask)
    expected = {rel: p.read_bytes() for rel, p in output_files(fresh).items()}
    for rel in expected:
        # a new file gets the mode open() gives it: 0o666 less the umask
        assert (fresh / rel).stat().st_mode & 0o777 == 0o664, rel

    # every target name already holds a file: longer junk, shorter junk or
    # the exact bytes the run will write
    for i, (rel, data) in enumerate(expected.items()):
        (rerun / rel).parent.mkdir(parents=True, exist_ok=True)
        (rerun / rel).write_bytes([b"#" * (len(data) + 37), b"#" * (len(data) // 2), data][i % 3])
    started_ns = time.time_ns()
    # file times come from a coarse clock; the pause keeps its tick from
    # dating a write before the call's start
    time.sleep(0.05)
    assert main(run_args(src, rerun, extra)) == 0

    written = output_files(rerun)
    assert sorted(written) == sorted(expected)
    for rel, path in written.items():
        assert path.read_bytes() == expected[rel], rel
        assert path.stat().st_mtime_ns > started_ns, rel


@pytest.mark.parametrize("text", ["grafo, \u00e9t\u00e9\n" * 40, ""], ids=["text", "empty"])
@pytest.mark.parametrize("before", [None, "longer", "same size", "shorter"])
def test_write_file_leaves_exactly_the_new_bytes_and_the_mode(tmp_path, monkeypatch, text, before):
    data = text.encode("utf-8")
    path = tmp_path / "f.txt"
    if before is not None:
        size = {"longer": len(data) + 37, "same size": len(data), "shorter": len(data) // 2}[before]
        path.write_bytes(b"#" * size)
        path.chmod(0o640)
        os.utime(path, ns=(0, 0))
    cuts, os_ftruncate = [], os.ftruncate

    def ftruncate(fd, length):
        cuts.append(length)
        return os_ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", ftruncate)
    umask = os.umask(0o022)
    try:
        export.write_file(path, text)
    finally:
        os.umask(umask)
    assert path.read_bytes() == data
    assert path.stat().st_mode & 0o777 == (0o644 if before is None else 0o640)
    # only a file longer than the new bytes is cut
    assert cuts == ([len(data)] if before == "longer" else [])
    if before is not None and data:
        assert path.stat().st_mtime_ns > 0


def _snapshot_result(days=12):
    """A run over 6 assets with a snapshot on every date."""
    panel = generate(SynthSpec(n_assets=6, n_days=days + 4, seed=3, shocks=[Shock(8, 12, 0.9)]))
    return run(panel, PipelineConfig(window_w=5, snapshot_dates="all"))


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_export_rewrites_snapshots_to_exactly_the_new_bytes_keeping_the_mode(tmp_path, kernel, request):
    """Each snapshot file the export rewrites was missing, longer, the same
    size or shorter: it ends up with exactly the new bytes, an existing one
    keeps its mode and every one gets a new mtime."""
    request.getfixturevalue(kernel)
    result = _snapshot_result()
    umask = os.umask(0o022)
    try:
        export.write_export_bundle(result, tmp_path / "fresh")
        expected = {p.name: p.read_bytes() for p in (tmp_path / "fresh" / "networks").iterdir()}
        net = tmp_path / "rerun" / "networks"
        net.mkdir(parents=True)
        for i, (name, data) in enumerate(sorted(expected.items())):
            if i % 4:
                (net / name).write_bytes(b"#" * [0, len(data) + 37, len(data), len(data) // 2][i % 4])
                (net / name).chmod(0o640)
                os.utime(net / name, ns=(0, 0))
        export.write_export_bundle(result, tmp_path / "rerun")
    finally:
        os.umask(umask)
    assert sorted(p.name for p in net.iterdir()) == sorted(expected)
    for i, (name, data) in enumerate(sorted(expected.items())):
        assert (net / name).read_bytes() == data, name
        assert (net / name).stat().st_mode & 0o777 == (0o640 if i % 4 else 0o644), name
        assert (net / name).stat().st_mtime_ns > 0, name


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_a_snapshot_that_cannot_be_written_raises_after_the_files_before_it(tmp_path, kernel, request, capsys):
    """With a directory where a snapshot goes, either writer raises the
    IsADirectoryError that opening the path raises, having written the
    files before it, and the CLI reports it as an export error."""
    request.getfixturevalue(kernel)
    result = _snapshot_result()
    dates = sorted(result.snapshots)
    export.write_export_bundle(result, tmp_path / "fresh")
    path = tmp_path / "out" / "networks" / f"{dates[2]}.cooc.dot"
    path.mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as caught:
        export.write_export_bundle(result, tmp_path / "out")
    assert str(caught.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'"
    # the DOT files of the first two dates, the first without a differential
    before = {f"{d}.{tag}.dot" for d in dates[:2] for tag in ("cooc", "diff")} - {f"{dates[0]}.diff.dot"}
    written = {p.name: p.read_bytes() for p in path.parent.iterdir() if p.is_file()}
    assert written == {name: (tmp_path / "fresh" / "networks" / name).read_bytes() for name in before}

    src = tmp_path / "data"
    main(gen_args(src, days=30, shock="15:25:0.9"))
    assert main(run_args(src, tmp_path / "probe")) == 0
    day = read_metrics_rows(tmp_path / "probe")[3].split(",")[0]
    path = tmp_path / "cli" / "networks" / f"{day}.cooc.dot"
    path.mkdir(parents=True)
    capsys.readouterr()
    assert main(run_args(src, tmp_path / "cli", ["--snapshots", "all"])) == 2
    assert capsys.readouterr().err == f"error [export]: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'\n"


def test_a_two_row_runs_lone_hub_points_are_circles(tmp_path):
    # the first row has no differential, so each hub series is one point
    src, out = tmp_path / "data", tmp_path / "out"
    assert main(gen_args(src, assets=4, days=21, shock=None)) == 0
    assert main(run_args(src, out, ["--charts"])) == 0
    assert len(read_metrics_rows(out)) == 2
    svg = (out / "hubs.svg").read_text()
    points = re.findall(r'<circle cx="([\d.]+)" cy="[\d.]+" r="2" fill="(\w+)"/>', svg)
    x = f"{export.CHART_WIDTH - 24:.2f}"  # the last date, at the plot's right edge
    assert points == [(x, "red"), (x, "blue")] and "<polyline" not in svg


def test_classes_ratio_flag(tmp_path):
    src = tmp_path / "data"
    assert main(gen_args(src, assets=8) + ["--classes", "2:1:1"]) == 0
    meta = json.loads((src / "assets.json").read_text())
    assert [m["asset_class"] for m in meta] == ["stock", "stock", "bond", "fx"] * 2
    assert main(gen_args(tmp_path / "bad", assets=4) + ["--classes", "0:0:0"]) == 1


# ---------------------------------------------------------------------------
# export_graph
# ---------------------------------------------------------------------------


def test_export_empty_graph_dot_lists_nodes_without_edges():
    g = Graph(end_date=D0, nodes=("b", "a"), edges=frozenset())
    text = export_graph(g, "dot", {"a": "stock", "b": "bond"})
    assert '"a" [class="stock", fillcolor="red"];' in text
    assert '"b" [class="bond", fillcolor="orange"];' in text
    assert "--" not in text


def test_export_signed_graph_dot_edge_colors():
    sg = SignedGraph(
        end_date=D0,
        nodes=("a", "b", "c"),
        red_edges={("a", "c")},
        blue_edges={("a", "b")},
    )
    text = export_graph(sg, "dot")
    assert '"a" -- "b" [color="blue"];' in text
    assert '"a" -- "c" [color="red"];' in text


def test_export_graph_byte_stable():
    g = Graph(end_date=D0, nodes=("x", "m", "a"), edges={("x", "a"), ("m", "a")})
    assert export_graph(g, "dot") == export_graph(g, "dot")
    assert export_graph(g, "json") == export_graph(g, "json")


def test_export_json_shape_and_order():
    sg = SignedGraph(
        end_date=D0,
        nodes=("b", "a"),
        red_edges=frozenset(),
        blue_edges={("b", "a")},
    )
    payload = json.loads(export_graph(sg, "json", {"a": "fx"}))
    assert list(payload) == ["date", "nodes", "edges"]
    assert payload["date"] == "2020-05-04"
    assert payload["nodes"] == [{"id": "a", "class": "fx"}, {"id": "b", "class": "other"}]
    assert payload["edges"] == [{"a": "a", "b": "b", "color": "blue"}]
    assert list(payload["edges"][0]) == ["a", "b", "color"]


ODD_IDS = ('a"b', "c\\", "\u00e9t\u00e9", "x\x01y", "plain")


@pytest.mark.parametrize(
    "g",
    [
        Graph(end_date=D0, nodes=ODD_IDS, edges=frozenset()),
        Graph(end_date=D0, nodes=(), edges=frozenset()),
        Graph(
            end_date=D0,
            nodes=ODD_IDS,
            edges={(ODD_IDS[0], ODD_IDS[1]), (ODD_IDS[2], ODD_IDS[4])},
        ),
        SignedGraph(end_date=D0, nodes=ODD_IDS, red_edges=frozenset(), blue_edges=frozenset()),
        SignedGraph(
            end_date=D0,
            nodes=ODD_IDS,
            red_edges={(ODD_IDS[0], ODD_IDS[3])},
            blue_edges={(ODD_IDS[1], ODD_IDS[2]), (ODD_IDS[0], ODD_IDS[4])},
        ),
    ],
)
@pytest.mark.parametrize("classes", [None, {ODD_IDS[0]: "bond", ODD_IDS[2]: 'we"ird\\'}])
def test_export_json_equals_json_dumps(g, classes):
    # nodes missing from `classes` take "other"; every id needs JSON escaping
    assert export_graph(g, "json", classes) == graph_json_reference(g, classes)


def test_export_memo_never_serves_another_graphs_nodes_or_classes():
    """More (nodes, classes) keys than the node-block memo holds, and each
    node set rendered again with other classes: every text is its own."""
    limit = export._node_block.cache_info().maxsize
    fill = {"stock": "red", "bond": "orange", "fx": "greenyellow", "other": "black", "nonesuch": "black"}
    palettes = [("stock", "bond"), ("fx", "other"), ("bond", "nonesuch")]
    for rnd in range(3):
        for m in range(limit + 2):
            a, q, z = f"a{m}", f'q"{m}', f"z{m}"
            first, second = palettes[(m + rnd) % len(palettes)]
            classes = {z: first, q: second}  # a is unmapped: class "other"
            g = Graph(end_date=D0, nodes=(z, q, a), edges={(z, a)})
            sg = SignedGraph(end_date=D0, nodes=(z, q, a), red_edges={(q, a)}, blue_edges={(z, q)})
            assert export_graph(g, "json", classes) == graph_json_reference(g, classes)
            assert export_graph(sg, "json", classes) == graph_json_reference(sg, classes)
            node_lines = [
                f'  "a{m}" [class="other", fillcolor="black"];',
                f'  "q\\"{m}" [class="{second}", fillcolor="{fill[second]}"];',
                f'  "z{m}" [class="{first}", fillcolor="{fill[first]}"];',
            ]
            body = ['  label="2020-05-04";', "  node [style=filled];", *node_lines]
            assert export_graph(g, "dot", classes) == "\n".join([
                "graph cooccurrence {",
                *body,
                f'  "a{m}" -- "z{m}";',
                "}\n",
            ])
            assert export_graph(sg, "dot", classes) == "\n".join([
                "graph differential {",
                *body,
                f'  "a{m}" -- "q\\"{m}" [color="red"];',
                f'  "q\\"{m}" -- "z{m}" [color="blue"];',
                "}\n",
            ])
    assert export._node_block.cache_info().currsize == limit


# id characters: ones DOT or JSON must escape, a space, a comma, a control
# character and non-ASCII ones, so random ids also sort unlike column order
ID_CHARS = st.sampled_from(["a", "B", "z", "0", " ", '"', "\\", ",", "\x01", "\u00e9", "\u4e2d", "\U0001f600"])


@st.composite
def snapshot_edges(draw):
    """Asset ids in column order, a co-occurrence mask over their pairs, a
    sign per pair (+1 red, -1 blue) or None for the first date, and classes."""
    ids = tuple(draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=2, max_size=9, unique=True)))
    pairs = len(ids) * (len(ids) - 1) // 2
    near = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    signs = draw(st.none() | st.lists(st.sampled_from([-1, 0, 1]), min_size=pairs, max_size=pairs))
    classes = draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(["stock", "fx", 'we"ird\\'])))
    return ids, np.array(near, dtype=bool), None if signs is None else np.array(signs), classes


@settings(max_examples=150, deadline=None)
@given(snapshot_edges())
@example((ODD_IDS, np.ones(10, dtype=bool), np.array([1, -1, 0] * 3 + [1]), {ODD_IDS[1]: "bond"}))
def test_snapshot_files_equal_export_graph_of_the_same_edges(case):
    ids, near, signs, classes = case
    ii, jj = np.triu_indices(len(ids), 1)

    def edges(mask):
        return {(ids[i], ids[j]) for i, j in zip(ii[mask].tolist(), jj[mask].tolist())}

    graphs = {"cooc": Graph(D0, ids, edges(near))}
    positions = [np.flatnonzero(near)]
    if signs is not None:
        graphs["diff"] = SignedGraph(D0, ids, edges(signs > 0), edges(signs < 0))
        positions += [np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)]
    snap = DaySnapshot(D0, ids, *positions)
    assert snap.cooccurrence == graphs["cooc"]
    assert snap.differential == graphs.get("diff")

    files = dict(export.snapshot_files(snap, GRAPH_FORMATS, classes))
    assert files == {
        f"{D0.isoformat()}.{tag}.{fmt}": export_graph(g, fmt, classes)
        for fmt in GRAPH_FORMATS
        for tag, g in graphs.items()
    }
    for tag, g in graphs.items():
        assert files[f"{D0.isoformat()}.{tag}.json"] == graph_json_reference(g, classes)


def _drawn_snapshot(draw, day, ids):
    """A snapshot over `ids` on `day`: no co-occurrence edge, every one or a
    random set of them; a differential with no red edge, no blue edge or
    any mix, or none at all."""
    pairs = len(ids) * (len(ids) - 1) // 2
    near = draw(st.just([False] * pairs) | st.just([True] * pairs) | st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    signs = draw(
        st.none()
        | st.sampled_from([[0] * pairs, [1] * pairs, [-1] * pairs])
        | st.lists(st.sampled_from([-1, 0, 1]), min_size=pairs, max_size=pairs)
    )
    positions = [np.flatnonzero(near)]
    if signs is not None:
        signs = np.array(signs, dtype=int)
        positions += [np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)]
    return DaySnapshot(day, ids, *positions)


@st.composite
def snapshot_runs(draw):
    """One to six dates of snapshots, each over the same ids in one of two
    column orders, neither sorted; the classes; and an edge limit per
    export block, so that the dates split into blocks of every size."""
    names = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=2, max_size=7, unique=True))
    orders = [tuple(names), tuple(draw(st.permutations(names)))]
    snaps = [
        _drawn_snapshot(draw, D0 + timedelta(days=d), orders[draw(st.integers(0, 1))])
        for d in range(draw(st.integers(1, 6)))
    ]
    classes = draw(st.dictionaries(st.sampled_from(names), st.sampled_from(["stock", "fx", 'we"ird\\'])))
    return snaps, classes, draw(st.integers(1, 40))


def _expected_files(snap, classes):
    """File name and `export_graph` text of each network of a snapshot."""
    return {
        f"{snap.end_date.isoformat()}.{tag}.{fmt}": export_graph(g, fmt, classes)
        for fmt in GRAPH_FORMATS
        for tag, g in (("cooc", snap.cooccurrence), ("diff", snap.differential))
        if g is not None
    }


def _written_networks(snaps, classes, formats=GRAPH_FORMATS):
    """The files `write_export_bundle` writes under networks/ for a result
    holding `snaps`, in `formats`, by name, decoded."""
    result = RunResult(snapshots={s.end_date: s for s in reversed(snaps)})
    with tempfile.TemporaryDirectory() as out:
        export.write_export_bundle(result, out, classes, formats)
        return {p.name: p.read_bytes().decode("utf-8") for p in (Path(out) / "networks").iterdir()}


@settings(max_examples=100, deadline=None)
@given(snapshot_runs())
def test_block_renderer_writes_each_dates_graphs(case):
    """Every file the export writes, whichever block its date falls in, is
    `export_graph` of that date's graph and `snapshot_files` of its
    snapshot alone."""
    snaps, classes, limit = case
    expected = {}
    for snap in snaps:
        alone = _expected_files(snap, classes)
        assert dict(export.snapshot_files(snap, GRAPH_FORMATS, classes)) == alone
        expected.update(alone)
    with mock.patch.object(export, "_EXPORT_BLOCK_EDGES", limit):
        assert _written_networks(snaps, classes) == expected


@pytest.mark.skipif(dtw.KERNEL != "c", reason="the compiled DTW kernel did not build or load here")
@settings(max_examples=100, deadline=None)
@given(snapshot_runs(), st.booleans(), st.sampled_from([("dot",), ("json",), ("dot", "json"), ("json", "dot")]))
def test_compiled_writer_writes_the_joined_pieces(case, first_alone, formats):
    """The compiled writer's tree is the one the pieces joined in Python
    give, compared as strict UTF-8 text: over ids that DOT and JSON escape, empty
    networks, a first date without differential, one format or both, in
    blocks of every size."""
    snaps, classes, limit = case
    if first_alone:
        snaps[0] = DaySnapshot(snaps[0].end_date, snaps[0].asset_ids, snaps[0].cooc_pairs)
    with mock.patch.object(export, "_EXPORT_BLOCK_EDGES", limit):
        compiled = _written_networks(snaps, classes, formats)
        with mock.patch.object(_native, "lib", None):
            joined = _written_networks(snaps, classes, formats)
    assert compiled == joined
    assert len(compiled) == len(formats) * sum(1 if s.red_pairs is None else 2 for s in snaps)


def test_snapshots_over_other_ids_render_in_their_own_blocks():
    """A result whose snapshots carry different id tuples, as only a hand-built
    one can, is rendered in one block per run of equal tuples, each file with
    its own date's ids."""
    ids = ("b", 'q"', "a")
    other = ("c", "b", "\\x", "a")
    snaps = [
        DaySnapshot(D0, ids, np.array([0, 2]), np.array([1]), np.array([0])),
        DaySnapshot(D0 + timedelta(days=1), other, np.array([0, 4, 5]), np.array([3]), np.array([], dtype=int)),
        DaySnapshot(D0 + timedelta(days=2), ids, np.array([1]), np.array([], dtype=int), np.array([2])),
        DaySnapshot(D0 + timedelta(days=3), ids, np.array([], dtype=int)),
    ]
    groups = export._export_blocks(RunResult(snapshots={s.end_date: s for s in snaps})._blocks)
    got = [[(b.ids, *b.dates) for b in group] for group in groups]
    assert got == [[(s.asset_ids, s.end_date) for s in part] for part in (snaps[:1], snaps[1:2], snaps[2:])]
    classes = {"a": "bond", "c": "fx"}
    expected = {name: text for snap in snaps for name, text in _expected_files(snap, classes).items()}
    assert len(expected) == 14
    assert _written_networks(snaps, classes) == expected


def test_export_peak_memory_does_not_grow_with_the_dates(tmp_path):
    """The export renders its snapshots in blocks of at most
    _EXPORT_BLOCK_EDGES edges from pieces per asset id, not per pair, and
    writes each file as soon as it is rendered: beyond the result it is
    given, writing every snapshot of a 60-asset run traces under 3 MB of
    peak allocations at 600 days as at 150 (0.9 MB at either), and so
    does a 200-asset run of 30 days, whose blocks hold most of its 19,900
    pairs (1.3 MB; 13.7 MB with a text per distinct pair of a block)."""

    def export_peak(n_assets, days):
        shock = Shock(days // 2, min(days // 2 + 30, days - 1), 0.9)
        panel = generate(SynthSpec(n_assets=n_assets, n_days=days, seed=6, shocks=[shock]))
        result = run(panel, PipelineConfig(snapshot_dates="all"))
        out = tmp_path / f"{n_assets}x{days}"
        export.write_export_bundle(result, out)  # the node blocks and pair order of these ids
        gc.collect()
        tracemalloc.start()
        try:
            export.write_export_bundle(result, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list(export._export_blocks(result._blocks))) > 3
        return peak

    short, long, wide = export_peak(60, 150), export_peak(60, 600), export_peak(200, 30)
    assert short < 3_000_000 and long < 3_000_000 and wide < 3_000_000
    assert long <= short + 256 * 1024


DOT_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


def test_export_dot_escapes_quotes_and_backslashes():
    g = SignedGraph(
        end_date=D0,
        nodes=ODD_IDS,
        red_edges={(ODD_IDS[0], ODD_IDS[1])},
        blue_edges={(ODD_IDS[1], ODD_IDS[4])},
    )
    text = export_graph(g, "dot", {ODD_IDS[0]: 'st"ock\\'})
    assert '"a\\"b" [class="st\\"ock\\\\", fillcolor="black"];' in text
    assert '"a\\"b" -- "c\\\\" [color="red"];' in text
    for line in text.splitlines():
        # every quoted string closes where a C-style lexer says it does, so
        # no quote or backslash is left outside one
        assert not re.search(r'["\\]', DOT_QUOTED.sub("", line)), line
    unescaped = {re.sub(r"\\(.)", r"\1", m) for m in DOT_QUOTED.findall(text)}
    assert set(ODD_IDS) | {'st"ock\\'} <= unescaped


def test_export_files_are_the_utf8_of_the_rendered_text(tmp_path):
    src, out = tmp_path / "data", tmp_path / "out"
    main(gen_args(src, assets=len(ODD_IDS), days=30, shock="15:25:0.9"))
    # rename the generated assets to ids that are not ASCII and that DOT and
    # JSON must escape
    with open(src / "prices.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[0][1:] = ODD_IDS
    with open(src / "prices.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    meta = json.loads((src / "assets.json").read_text(encoding="utf-8"))
    for m, asset_id in zip(meta, ODD_IDS):
        m["asset_id"] = asset_id
    (src / "assets.json").write_text(json.dumps(meta), encoding="utf-8")
    assert main(run_args(src, out, ["--snapshots", "all"])) == 0

    panel = load_panel(src / "prices.csv", src / "assets.json")
    result = run(panel, PipelineConfig(snapshot_dates="all"))
    classes = {m.asset_id: m.asset_class for m in panel.assets}
    expected = {"metrics.csv": metrics_csv_text(result.metrics)}
    for d, snap in result.snapshots.items():
        for tag, g in (("cooc", snap.cooccurrence), ("diff", snap.differential)):
            if g is None:
                continue
            for fmt in ("dot", "json"):
                name = f"networks/{d.isoformat()}.{tag}.{fmt}"
                expected[name] = export_graph(g, fmt, classes)

    written = output_files(out)
    assert sorted(rel.as_posix() for rel in written) == sorted(expected)
    for rel, path in written.items():
        data = path.read_bytes()
        assert data == expected[rel.as_posix()].encode("utf-8"), rel
        assert b"\r" not in data, rel


def test_export_graph_format_validated():
    g = Graph(end_date=D0, nodes=("a",), edges=frozenset())
    with pytest.raises(ValueError, match="format"):
        export_graph(g, "graphml")


def _every_render(snap, fmt, classes, out):
    """Calls that render `snap` in `fmt` through each entry point: its
    graphs through `export_graph`, then `snapshot_files` and the export."""
    return [
        lambda: export_graph(snap.cooccurrence, fmt, classes),
        lambda: export_graph(snap.differential, fmt, classes),
        lambda: export.snapshot_files(snap, [fmt], classes),
        lambda: export.write_export_bundle(RunResult(snapshots={snap.end_date: snap}), out, classes, [fmt]),
    ]


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
@pytest.mark.parametrize(
    "classes, match",
    [
        ({"b": 3}, "class of asset 'b' must be a str, got 3"),
        ({"a": None}, "class of asset 'a' must be a str, got None"),
        ({"a": ["stock"]}, "class of asset 'a' must be a str"),
        ([("a", "stock")], "classes must map asset ids to class names"),
    ],
)
def test_every_renderer_rejects_classes_that_are_not_strs(tmp_path, fmt, classes, match):
    # a class of 3 used to raise AttributeError in DOT and write "class": 3 in JSON
    snap = DaySnapshot(D0, ("b", "a"), np.array([0]), np.array([], dtype=int), np.array([0]))
    for call in _every_render(snap, fmt, classes, tmp_path):
        with pytest.raises(ValueError, match=re.escape(match)):
            call()


@pytest.mark.parametrize("bad", [np.array([-1]), np.array([3]), np.array([1.5]), np.array([True])])
@pytest.mark.parametrize("network", range(3))
def test_snapshot_positions_outside_the_pairs_raise_naming_the_date(bad, network):
    """A position of -1 used to render the last pair and 3 or 1.5 raised
    IndexError. Building the snapshot now raises a ValueError naming the
    date, so no renderer or graph property ever gets one."""
    ids, day = ("c", "a", "b"), D0 + timedelta(days=1)
    positions = [np.array([1]), np.array([0]), np.array([2])]
    positions[network] = bad
    with pytest.raises(ValueError, match=f"snapshot of {day}: edge positions must be integers in 0 .. 2"):
        DaySnapshot(day, ids, *positions)


@pytest.mark.parametrize(
    "positions, network",
    [
        ([[0, 0], [1], [2]], 0),  # a co-occurrence edge twice
        ([[0], [1, 2, 1], [0]], 1),  # a red edge twice
        ([[0], [1], [2, 2]], 1),  # a blue edge twice
        ([[0], [1], [1]], 1),  # a pair both red and blue
    ],
)
def test_snapshot_positions_that_come_twice_raise_naming_the_date(positions, network):
    """These used to render an edge twice, or one pair in both colors; now
    the snapshot is not built. The other network alone is sound."""
    ids, day = ("c", "a", "b"), D0 + timedelta(days=1)
    with pytest.raises(ValueError, match=f"snapshot of {day}: edge position \\d+ comes twice"):
        DaySnapshot(day, ids, *map(np.array, positions))
    sound = [positions[0]] if network else [[0], *positions[1:]]
    DaySnapshot(day, ids, *map(np.array, sound))


@pytest.mark.parametrize(
    "ids, day, positions, match",
    [
        # int ids raised AttributeError in DOT and wrote "id": 1 in JSON
        ((1, "a", "b"), D0, [[0]], "asset_ids must be string ids, got 1"),
        # a repeated id wrote two node lines
        (("a", "b", "a"), D0, [[0]], f"snapshot of {D0}: asset id 'a' comes twice"),
        # a str date raised AttributeError
        (("c", "a", "b"), "2020-05-04", [[0]], "end_date must be calendar dates, got '2020-05-04'"),
        # red pairs without blue ones said the positions were not integers,
        # and blue pairs without red ones were dropped
        (("c", "a", "b"), D0, [[0], [1], None], f"snapshot of {D0}: red_pairs and blue_pairs must both be given "
         "or both be None"),
        (("c", "a", "b"), D0, [[0], None, [1]], f"snapshot of {D0}: red_pairs and blue_pairs must both be given "
         "or both be None"),
    ],
    ids=["int-ids", "repeated-id", "str-date", "red-without-blue", "blue-without-red"],
)
def test_a_snapshot_is_checked_when_it_is_built(ids, day, positions, match):
    """Each of these gave a ValueError from the graph properties but not
    from every renderer."""
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        DaySnapshot(day, ids, *[None if p is None else np.array(p) for p in positions])


def test_a_snapshot_keeps_its_own_read_only_positions():
    """Writing into the arrays a snapshot was built from leaves its files as
    they were: it holds read-only intp copies."""
    ids = ("c", "a", "b")
    given = [np.array([0, 2], dtype=np.int32), np.array([1]), np.array([], dtype=np.uint8)]
    snap = DaySnapshot(D0, ids, *given)
    files = export.snapshot_files(snap)
    given[0][:] = 1
    given[1][:] = 0
    assert export.snapshot_files(snap) == files
    for p in (snap.cooc_pairs, snap.red_pairs, snap.blue_pairs):
        assert p.dtype == np.intp and not p.flags.writeable


def test_snapshot_positions_of_any_integer_type_render_alike():
    ids = ("c", "a", "b")
    positions = [np.array([0, 2]), np.array([1]), np.array([], dtype=int)]
    expected = export.snapshot_files(DaySnapshot(D0, ids, *positions))
    for dtype in (np.int32, np.uint8, np.uint64):
        snap = DaySnapshot(D0, ids, *[p.astype(dtype) for p in positions])
        assert export.snapshot_files(snap) == expected


@pytest.mark.parametrize("snapshots", [None, "all"])
@pytest.mark.parametrize("formats", ["dot", ("svg",), ("dot", "graphml")])
def test_export_bundle_rejects_graph_formats_before_writing(tmp_path, snapshots, formats):
    panel = generate(SynthSpec(n_assets=4, n_days=22, seed=1))
    result = run(panel, PipelineConfig(snapshot_dates=snapshots))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^graph_formats must be .*, got {re.escape(repr(formats))}$"):
        export.write_export_bundle(result, out, graph_formats=formats)
    assert not out.exists()


@pytest.mark.parametrize("snapshots", [None, "all"])
@pytest.mark.parametrize(
    "classes, match",
    [
        (5, "classes must map asset ids to class names, got 5"),
        ({"nobody": 3}, "the class of asset 'nobody' must be a str, got 3"),
    ],
    ids=["not-a-mapping", "not-a-str"],
)
def test_export_bundle_rejects_classes_before_writing(tmp_path, snapshots, classes, match):
    """The graph formats' test, for `classes`: 5 used to pass unseen by a
    result with no snapshots, and one with snapshots wrote metrics.csv and
    networks/ first. Every value of the mapping is checked, also that of
    an id the run does not have."""
    result = run(generate(SynthSpec(n_assets=4, n_days=22, seed=1)), PipelineConfig(snapshot_dates=snapshots))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        export.write_export_bundle(result, out, classes=classes)
    assert not out.exists()


@pytest.mark.parametrize("formats", ["dot", ("dot", "graphml")])
def test_snapshot_files_names_the_formats_it_rejects(formats):
    # a str used to be taken one character at a time: "got 'd'"
    result = run(generate(SynthSpec(n_assets=4, n_days=22, seed=1)), PipelineConfig(snapshot_dates="all"))
    snap = next(iter(result.snapshots.values()))
    with pytest.raises(ValueError, match=f"^formats must be .*, got {re.escape(repr(formats))}$"):
        export.snapshot_files(snap, formats)


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_graph_formats_may_be_any_iterable_of_names(tmp_path, kernel, request):
    """The formats are taken once: a generator used to be read by the check
    and then found empty, or without a len, after metrics.csv was written."""
    request.getfixturevalue(kernel)
    result = run(generate(SynthSpec(n_assets=4, n_days=22, seed=1)), PipelineConfig(snapshot_dates="all"))
    snap = next(iter(result.snapshots.values()))
    trees = []
    for i, formats in enumerate([["json", "dot"], (f for f in ["json", "dot"]), {"dot", "json"}]):
        assert export.snapshot_files(snap, iter(["dot"])) == export.snapshot_files(snap, ["dot"])
        export.write_export_bundle(result, tmp_path / str(i), graph_formats=formats, charts=True)
        trees.append({p.relative_to(tmp_path / str(i)): p.read_bytes() for p in (tmp_path / str(i)).rglob("*.*")})
    # 3 dates, the first without a differential, in 2 formats; metrics.csv and 2 charts
    assert len(trees[0]) == 2 * 5 + 3 and trees[1] == trees[0] and trees[2] == trees[0]


def test_metrics_csv_empty_vs_zero():
    rows = [
        MetricsRow(end_date=D0, gbe=1.5, n_components=3, n_cooc_edges=2),
        MetricsRow(
            end_date=date(2020, 5, 5),
            gbe=0.0,
            n_components=1,
            n_cooc_edges=4,
            n_red_edges=0,
            n_blue_edges=2,
            n_farther_hubs=0,
            n_closer_hubs=1,
        ),
    ]
    text = metrics_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[1] == "2020-05-04,1.5,3,2,,,,"
    assert lines[2] == "2020-05-05,0.0,1,4,0,2,0,1"


# finite floats from 0 on, subnormals and values past 1e16 among them, up to
# where a chart's scaling by its height would overflow
GBE = st.floats(0, 1e300) | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e16, 2.0**53 + 2, 1e300])


@st.composite
def metrics_rows(draw):
    """Metrics rows of consecutive dates: any gbe of GBE, the first row with
    or without its differential fields, and hub counts with gaps (None)
    anywhere, lone ones too."""
    rows = []
    for d in range(draw(st.integers(0, 12))):
        alone = d == 0 and draw(st.booleans())
        counts = st.none() if alone else st.integers(0, 10**6)
        hubs = st.none() if alone else st.none() | st.integers(0, 60)
        rows.append(MetricsRow(
            D0 + timedelta(days=d), draw(GBE), draw(st.integers(1, 10**6)), draw(st.integers(0, 10**6)),
            n_red_edges=draw(counts), n_blue_edges=draw(counts), n_farther_hubs=draw(hubs), n_closer_hubs=draw(hubs),
        ))
    return rows


@given(metrics_rows())
def test_metrics_csv_equals_the_row_by_row_renderer(rows):
    assert metrics_csv_text(rows) == metrics_csv_reference(rows)


@settings(deadline=None)
@given(metrics_rows())
def test_charts_equal_the_row_by_row_renderer(rows):
    """The charts, drawn from columns, are the row-by-row drawing's bytes:
    every coordinate the same float64 operations, every gap and lone point
    in place."""
    try:
        expected = charts_reference(rows)
    except ZeroDivisionError:  # one value past 2**53, where lo + 1.0 == lo
        assume(False)
    with tempfile.TemporaryDirectory() as out:
        paths = export.write_charts(RunResult(metrics=rows), Path(out))
        assert {p.name: p.read_text(encoding="utf-8") for p in paths} == expected


@pytest.mark.parametrize("gbe", [2.0**60, -(2.0**60)], ids=["2**60", "-2**60"])
def test_a_flat_chart_past_2_53_is_drawn_like_any_flat_chart(tmp_path, gbe):
    """A flat series is widened so that its range is never empty: at
    |gbe| = 2**60, where adding 1.0 changes nothing, the GBE line lies on
    the plot's floor as it does at gbe 0, with no NaN coordinate and no
    warning."""
    def polylines(value):
        rows = [MetricsRow(D0 + timedelta(days=d), value, 1, 0) for d in range(3)]
        out = tmp_path / str(value)
        out.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            export.write_charts(RunResult(metrics=rows), out)
        svg = (out / "gbe.svg").read_text(encoding="utf-8")
        assert "nan" not in svg
        return [line for line in svg.splitlines() if line.startswith("<polyline")]

    assert polylines(gbe) == polylines(0.0) != []


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_a_hand_built_result_writes_the_runs_tree(tmp_path, kernel, request, monkeypatch):
    """The export reads a result's metric columns and edge arrays, the one
    form it keeps, whether its rows and snapshots are unread, read, or what
    it was built from: in blocks of several dates, with every date or chosen
    ones, all three write the same tree, and none converts rows or
    snapshots back to arrays while it exports."""

    def refuse(*args, **kwargs):
        raise AssertionError("the export converted rows or snapshots")

    request.getfixturevalue(kernel)
    monkeypatch.setattr(pipeline, "_BLOCK_DOUBLES", 4 * (15 + 6 * 5))  # 4 dates a block
    panel = generate(SynthSpec(n_assets=6, n_days=30, seed=3, shocks=[Shock(12, 20, 0.9)]))
    chosen = [panel.dates[4], panel.dates[9], panel.dates[10], panel.dates[20]]
    for wanted in ("all", chosen):
        config = PipelineConfig(window_w=5, snapshot_dates=wanted)
        trees = []
        for form in ("run", "read", "built"):
            result = run(panel, config)
            if form != "run":
                rows, snaps = result.metrics, result.snapshots
                if form == "built":
                    result = RunResult(metrics=list(rows), snapshots=dict(snaps))
            out = tmp_path / ("every" if wanted == "all" else "chosen") / form
            # whatever the form, the export reads the arrays it holds and converts nothing
            with mock.patch.object(networks._Columns, "of", refuse), mock.patch.object(pipeline, "_edge_block", refuse):
                export.write_export_bundle(result, out, charts=True)
            trees.append({rel: path.read_bytes() for rel, path in output_files(out).items()})
        assert trees[0] == trees[1] == trees[2]
        assert len(trees[0]) == 3 + 4 * len(result.snapshots) - 2


def test_a_cli_run_builds_no_metrics_row_and_no_snapshot(tmp_path, monkeypatch):
    """A CLI run writes its CSV, snapshots, charts and summary from the
    run's columns and edge arrays, without one MetricsRow or DaySnapshot."""
    src = tmp_path / "data"
    main(gen_args(src, days=60))
    extra = ["--snapshots", "all", "--charts"]
    assert main(run_args(src, tmp_path / "free", extra)) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a CLI run built a metrics row or a snapshot")

    monkeypatch.setattr(MetricsRow, "__init__", refuse)
    monkeypatch.setattr(DaySnapshot, "__post_init__", refuse)
    monkeypatch.setattr(DaySnapshot, "_unchecked", classmethod(refuse))
    assert main(run_args(src, tmp_path / "out", extra)) == 0
    free, out = output_files(tmp_path / "free"), output_files(tmp_path / "out")
    assert free.keys() == out.keys() and all(free[k].read_bytes() == out[k].read_bytes() for k in free)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_an_export_error_after_every_file(tmp_path, unbuffered):
    """With its stdout a pipe whose reader has gone, each command writes all
    its files, then reports the summary line it cannot print as an export
    error, exit 2, and nothing else: no data error, and no second error when
    the interpreter flushes stdout at exit (exit 120)."""
    env = {**os.environ, "PYTHONPATH": str(Path(market_rewire.__file__).parent.parent), "PYTHONUNBUFFERED": unbuffered}

    def closed_stdout(argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "market_rewire.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write)

    broken = f"error [export]: stdout: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
    src, extra = tmp_path / "data", ["--snapshots", "all", "--charts"]
    gen = closed_stdout(gen_args(src))
    assert (gen.returncode, gen.stderr) == (2, broken)
    done = closed_stdout(run_args(src, tmp_path / "out", extra))
    assert (done.returncode, done.stderr) == (2, broken)
    assert main(run_args(src, tmp_path / "fresh", extra)) == 0
    fresh, out = output_files(tmp_path / "fresh"), output_files(tmp_path / "out")
    assert len(out) > 3 and fresh.keys() == out.keys()
    assert all(fresh[k].read_bytes() == out[k].read_bytes() for k in fresh)


# Cells of a hand-made price CSV that a run takes, although they are odd
_ODD_CELLS = ["1e300", "5e-324", "", "1_0"]


@st.composite
def hostile_cli_inputs(draw):
    """A price CSV, as bytes, a metadata JSON text and the run's flags. The
    CSV may have odd cells (`_ODD_CELLS`), unsorted rows, CR or CRLF line
    ends, a BOM and an id holding a quote, a comma or a space. Half the
    examples add one fault that the run should refuse."""
    n, days = draw(st.integers(2, 5)), draw(st.integers(1, 40))
    faults = ["duplicate date", "ragged row", "not UTF-8", "missing record", "no records", "edge id", "bad cell"]
    fault = draw(st.sampled_from(faults)) if draw(st.booleans()) else None
    # the last id, with an odd character before, inside or after it
    last, odd = f"a{n - 1}", draw(st.sampled_from([" ", "\r"] if fault == "edge id" else ["", '"', ",", " "]))
    at = draw(st.sampled_from([0, 1, len(last)])) if fault == "edge id" else 1
    ids = [*(f"a{i}" for i in range(n - 1)), last[:at] + odd + last[at:]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(days, n)), axis=0))
    prices[:, sorted(draw(st.sets(st.integers(0, n - 1), max_size=1)))] = 7.0  # a constant column
    cells = [[repr(v) for v in row] for row in prices.tolist()]
    odd_cells = st.sampled_from(_ODD_CELLS + (["nan", "inf", "0x1p3"] if fault == "bad cell" else []))
    for r, c, cell in draw(st.lists(st.tuples(st.integers(0, days - 1), st.integers(0, n - 1), odd_cells), max_size=2)):
        cells[r][c] = cell
    dates = [(date(2021, 1, 4) + timedelta(days=2 * d)).isoformat() for d in range(days)]
    if fault == "duplicate date":
        dates[draw(st.integers(0, days - 1))] = dates[draw(st.integers(0, days - 1))]
    rows = [[d, *row] for d, row in zip(dates, cells)]
    if fault == "ragged row":
        r = draw(st.integers(0, days - 1))
        rows[r] = rows[r] + ["1.0"] if draw(st.booleans()) else rows[r][:-1]
    if draw(st.booleans()):
        rows = [rows[i] for i in draw(st.permutations(range(days)))]
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"]))).writerows([["date", *ids], *rows])
    data = (("\ufeff" if draw(st.booleans()) else "") + text.getvalue()).encode()
    if fault == "not UTF-8":
        data += b"\xff"
    missing = {"missing record": ids[:1], "no records": ids}.get(fault, [])
    classes, signs = st.sampled_from(ASSET_CLASSES), st.sampled_from([1, -1])
    meta = [
        {"asset_id": i, "name": i, "asset_class": draw(classes), "direction": draw(signs)} for i in ids if i not in missing
    ]
    flags = ["--window", str(draw(st.sampled_from([2, 3, 5, 20])))]
    if draw(st.booleans()):
        flags += ["--band", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        flags += ["--fill", "drop_date"]
    return data, json.dumps(meta), flags


@settings(max_examples=100, deadline=None)
@given(hostile_cli_inputs())
def test_hostile_inputs_end_in_a_clear_exit(case):
    """Whatever a hand-made input holds, a run exits 0, 1 or 2, never 3 (an
    internal error). A run that succeeds writes finite metrics, and a rerun
    at two threads, always pooled, rewrites the same bytes."""
    data, meta, flags = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # constant windows
        tmp = Path(tmp)
        (tmp / "prices.csv").write_bytes(data)
        (tmp / "assets.json").write_text(meta, encoding="utf-8")
        args = run_args(tmp, tmp / "out", ["--snapshots", "all", "--charts", *flags])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
            assert code in (0, 1, 2), err.getvalue()
            if code == 0:
                files = {k: p.read_bytes() for k, p in output_files(tmp / "out").items()}
                gbe = [row["gbe"] for row in csv.DictReader(io.StringIO(files[Path("metrics.csv")].decode()))]
                assert gbe and all(math.isfinite(float(g)) for g in gbe)
                with mock.patch.object(pipeline, "_POOL_MIN_WORK", 0):
                    assert main(args + ["--threads", "2"]) == 0, err.getvalue()
                assert {k: p.read_bytes() for k, p in output_files(tmp / "out").items()} == files
