import csv
import dataclasses
import io
import json
import math
import re
from collections import Counter
from datetime import date
from itertools import groupby

import numpy as np
import pytest

from market_rewire import AssetMeta, MetricsRow, PricePanel, SignedGraph, _native, dtw, pipeline


@pytest.fixture
def c_kernel():
    """The compiled kernel, which a run and `distance_matrix` take wherever
    it loaded."""
    if dtw.KERNEL != "c":
        pytest.skip("the compiled DTW kernel did not build or load here")


@pytest.fixture
def numpy_kernel(monkeypatch):
    """The numpy wavefront, which a run and `distance_matrix` take where the
    compiled kernel did not load."""
    monkeypatch.setattr(_native, "lib", None)


@pytest.fixture
def pooled(monkeypatch):
    """A run with more than one worker hands its dates to the thread pool
    however little DTW work they hold, so that small panels exercise it."""
    monkeypatch.setattr(pipeline, "_POOL_MIN_WORK", 0)


def dtw_bruteforce(p, q, band=None):
    """Exhaustive minimum over all monotone warping paths.

    Walks every path from (0, 0) to (l-1, m-1) built from right, down and
    diagonal steps, summing |p_i - q_j| at each visited cell. Exponential on
    purpose: this is the independent oracle, kept free of any dynamic
    programming so it cannot share a bug with the implementation under test.
    With `band`, a path may visit only cells with |i - j| <= band; inf where
    none reaches the end.
    """
    p = [float(v) for v in p]
    q = [float(v) for v in q]
    l, m = len(p), len(q)
    best = [float("inf")]

    def walk(i, j, acc):
        if band is not None and abs(i - j) > band:
            return
        acc += abs(p[i] - q[j])
        if i == l - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < l:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < l and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def graph_json_reference(g, classes=None):
    """Snapshot JSON as json.dumps renders it: the text export_graph must equal."""
    classes = classes or {}
    if isinstance(g, SignedGraph):
        tagged = [(a, b, "red") for a, b in g.red_edges]
        tagged += [(a, b, "blue") for a, b in g.blue_edges]
        edges = [{"a": a, "b": b, "color": c} for a, b, c in sorted(tagged)]
    else:
        edges = [{"a": a, "b": b} for a, b in sorted(g.edges)]
    payload = {
        "date": g.end_date.isoformat(),
        "nodes": [{"id": n, "class": classes.get(n, "other")} for n in sorted(g.nodes)],
        "edges": edges,
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.fixture
def dtw_oracle():
    return dtw_bruteforce


def component_sizes_reference(g):
    """Node counts of the graph's connected components, largest first, from a
    plain union-find over its id edges."""
    root = {node: node for node in g.nodes}

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in g.edges:
        root[find(a)] = find(b)
    return sorted(Counter(find(node) for node in g.nodes).values(), reverse=True)


def hub_ids_reference(sg, k):
    """(closer, farther) hub ids: the nodes with at least `k` blue, resp. red,
    edges, from plain degree counts."""
    return tuple(
        {node for node, degree in Counter(x for edge in edges for x in edge).items() if degree >= k}
        for edges in (sg.blue_edges, sg.red_edges)
    )


def graph_metrics_row(g, sg, k):
    """A date's metrics read off its co-occurrence graph and, when there is
    one, its differential graph with hub degree `k`, without the library's
    network code: the reference that the pipeline's array metrics must
    equal. The entropy is summed largest cluster first, as documented, in a
    plain loop: `sum` compensates its rounding from Python 3.12 on."""
    sizes = component_sizes_reference(g)
    n = len(g.nodes)
    gbe = 0.0
    for s in sizes:
        gbe -= s / n * math.log2(s / n)
    row = {"gbe": gbe + 0.0, "n_components": len(sizes), "n_cooc_edges": len(g.edges)}
    if sg is not None:
        closer, farther = hub_ids_reference(sg, k)
        row.update(
            n_red_edges=len(sg.red_edges),
            n_blue_edges=len(sg.blue_edges),
            n_farther_hubs=len(farther),
            n_closer_hubs=len(closer),
        )
    return MetricsRow(end_date=g.end_date, **row)


def build_panel(values, directions=None, classes=None, dates=None):
    """PricePanel from a raw (n_dates, n_assets) array with stub metadata."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    directions = directions or [1] * n
    classes = classes or ["stock"] * n
    assets = [
        AssetMeta(f"a{i:02d}", f"Asset {i}", classes[i], directions[i]) for i in range(n)
    ]
    if dates is None:
        from datetime import date, timedelta

        start = date(2020, 1, 1)
        dates = [start + timedelta(days=i) for i in range(values.shape[0])]
    return PricePanel(dates=dates, assets=assets, values=values)


@pytest.fixture
def panel_factory():
    return build_panel


def panel_csv_reference(panel):
    """The price CSV of `panel` as the cell-by-cell renderer wrote it, the
    bytes `synth.write_panel` must equal: each value's `repr(float(v))`,
    a NaN cell blank."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", *panel.asset_ids])
    for d, row in zip(panel.dates, panel.values):
        writer.writerow([d.isoformat()] + ["" if np.isnan(v) else repr(float(v)) for v in row])
    return out.getvalue().encode("utf-8")


def prices_csv_reference(csv_path):
    """The sorted dates and the (dates, assets) values that
    `ingest.load_panel` reads from the price CSV at `csv_path`, or the
    ValueError message it raises, parsed line by line and cell by cell:
    the contract that any faster parse must keep. It reads only files with
    no quoted field, no NUL and assets that all have metadata.

    A leading byte-order mark is dropped, and lines end at CR LF, CR or LF,
    as `csv.reader` splits them; rows are numbered from the header's 1,
    blank ones included. A row whose cells are all blank or whitespace is
    skipped. Each cell and date is stripped of whitespace, Unicode's
    included; a blank cell is NaN, and any other must be what `float`
    accepts and finite."""
    with open(csv_path, "rb") as fh:
        text = fh.read().decode("utf-8-sig")
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(",") if lines and lines[0] else []
    if not header or header[0].strip() != "date":
        raise ValueError(f"{csv_path}: first header column must be 'date'")
    ids = [h.strip() for h in header[1:]]
    rows, seen = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if all(not c.strip() for c in cells):
            continue
        if len(cells) != len(ids) + 1:
            raise ValueError(f"{csv_path}: row {lineno} has {len(cells)} fields, expected {len(ids) + 1}")
        try:
            d = date.fromisoformat(cells[0].strip())
        except ValueError:
            raise ValueError(f"{csv_path}: row {lineno}: unparseable date {cells[0].strip()!r}") from None
        if d in seen:
            raise ValueError(f"{csv_path}: row {lineno}: duplicate date {d} (first seen at row {seen[d]})")
        seen[d] = lineno
        values = []
        for asset, cell in zip(ids, cells[1:]):
            cell = cell.strip()
            try:
                v = float(cell) if cell else math.nan
            except ValueError:
                raise ValueError(f"{csv_path}: row {lineno}: unparseable value {cell!r} for {asset!r}") from None
            if cell and not math.isfinite(v):
                raise ValueError(f"{csv_path}: row {lineno}: non-finite value {cell!r} for {asset!r}")
            values.append(v)
        rows.append((d, values))
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    rows.sort(key=lambda r: r[0])
    return [d for d, _ in rows], np.array([v for _, v in rows], dtype=float)


def metrics_csv_reference(rows):
    """The metrics CSV of `rows` as the row-by-row renderer wrote it, the
    text `export.metrics_csv_text` must equal: each field's str, a None
    empty, one row at a time."""
    names = [f.name for f in dataclasses.fields(MetricsRow)]
    out = [",".join(["date", *names[1:]])]
    for r in rows:
        out.append(",".join(["" if getattr(r, name) is None else str(getattr(r, name)) for name in names]))
    return "\n".join(out) + "\n"


def charts_reference(rows, width=960, height=320):
    """gbe.svg and hubs.svg of `rows`, by name, as the row-by-row renderer
    drew them, the texts `export.write_charts` must equal: every coordinate
    from Python scalars, one point at a time, and a None a gap."""
    dates = [r.end_date for r in rows]
    charts = {
        "gbe.svg": ("Graph-based entropy (bits)", [("GBE", "green", [r.gbe for r in rows])]),
        "hubs.svg": ("Differential-network hubs", [
            ("farther hubs", "red", [r.n_farther_hubs for r in rows]),
            ("closer hubs", "blue", [r.n_closer_hubs for r in rows]),
        ]),
    }
    return {name: _line_chart_reference(title, dates, series, width, height) for name, (title, series) in charts.items()}


def _line_chart_reference(title, dates, series, width, height):
    ml, mr, mt, mb = 60, 24, 34, 42
    plot_w, plot_h = width - ml - mr, height - mt - mb
    n = len(dates)

    present = [v for _, _, vals in series for v in vals if v is not None]
    lo = min(present) if present else 0.0
    hi = max(present) if present else 1.0
    if hi == lo:
        hi = lo + 1.0

    def x(i):
        return ml + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)

    def y(v):
        return mt + (hi - v) * plot_h / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        yy = y(v)
        parts.append(
            f'<line x1="{ml}" y1="{yy:.2f}" x2="{width - mr}" y2="{yy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.3g}</text>'
        )
    for i in sorted({0, n // 2, n - 1}):
        if 0 <= i < n:
            parts.append(
                f'<text x="{x(i):.2f}" y="{height - 14}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{dates[i].isoformat()}</text>'
            )
    for si, (label, color, vals) in enumerate(series):
        runs = groupby(enumerate(vals), key=lambda iv: iv[1] is None)
        for seg in [[f"{x(i):.2f},{y(v):.2f}" for i, v in run] for gap, run in runs if not gap]:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        parts.append(
            f'<text x="{width - mr}" y="{mt + 14 * si}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
