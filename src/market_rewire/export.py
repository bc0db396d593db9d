"""Output formats: the metrics CSV, DOT/JSON network snapshots and SVG
charts, and the layout of the output directory they are written to.

Every renderer is deterministic: lists are sorted and numbers are formatted
the same way every time, so one run's outputs are identical bytes whatever
the thread count.
"""

import json
import os
from dataclasses import fields
from datetime import date
from functools import lru_cache
from itertools import groupby, repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dtw import _pair_indices
from .networks import Graph, MetricsRow, SignedGraph
from .pipeline import DaySnapshot, RunResult

# node fill colors per asset class, following the usual market palette:
# stocks red, government bonds orange, exchange rates green-yellow,
# anything else black
CLASS_COLORS = {"stock": "red", "bond": "orange", "fx": "greenyellow", "other": "black"}

# one column per MetricsRow field, in field order; end_date is headed "date"
_METRICS_FIELDS = tuple(f.name for f in fields(MetricsRow))
METRICS_COLUMNS = ("date",) + _METRICS_FIELDS[1:]

GRAPH_FORMATS = ("dot", "json")

# size of each SVG chart in pixels
CHART_WIDTH, CHART_HEIGHT = 960, 320


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _dot_escape(s: str) -> str:
    """Escape a DOT quoted-string body, so `"` and a trailing `\\` cannot end it."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


@lru_cache(maxsize=16)
def _node_block(
    fmt: str, nodes: tuple[str, ...], node_classes: tuple[str, ...]
) -> tuple[tuple[str, ...], str]:
    """The escaped id of each of the sorted `nodes`, in their order, and the
    text of their node list in `fmt`, for nodes of the given classes."""
    if fmt == "json":
        # json.dumps of each string keeps the C encoder's escaping
        ids = tuple([json.dumps(n) for n in nodes])
        items = [
            f'    {{\n      "id": {i},\n      "class": {json.dumps(cls)}\n    }}'
            for i, cls in zip(ids, node_classes)
        ]
        return ids, _json_list(items)
    ids = tuple([_dot_escape(n) for n in nodes])
    colors = [CLASS_COLORS.get(cls, CLASS_COLORS["other"]) for cls in node_classes]
    block = "".join(
        f'  "{i}" [class="{_dot_escape(cls)}", fillcolor="{color}"];\n'
        for i, cls, color in zip(ids, node_classes, colors)
    )
    return ids, block


def _render(
    fmt: str,
    end_date: date,
    nodes: tuple[str, ...],
    node_classes: tuple[str, ...],
    lo: Sequence[int],
    hi: Sequence[int],
    colors: Sequence[str] | None = None,
) -> str:
    """The text of a network on the sorted `nodes` whose e-th edge, in
    export order, joins nodes[lo[e]] and nodes[hi[e]] (lo[e] < hi[e]). With
    `colors` it is a differential network and edge e has color colors[e];
    without, a co-occurrence network."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"graph format must be one of {GRAPH_FORMATS}, got {fmt!r}")
    ids, node_block = _node_block(fmt, nodes, node_classes)
    if fmt == "json":
        # the same text as json.dumps(payload, indent=2) + "\n", built here
        # because an indent makes json run its pure-Python encoder
        ends = repeat("\n    }") if colors is None else [f',\n      "color": "{c}"\n    }}' for c in colors]
        edge_items = [
            f'    {{\n      "a": {ids[a]},\n      "b": {ids[b]}{end}' for a, b, end in zip(lo, hi, ends)
        ]
        return (
            f'{{\n  "date": "{end_date.isoformat()}",\n'
            f'  "nodes": {node_block},\n'
            f'  "edges": {_json_list(edge_items)}\n}}\n'
        )
    ends = repeat(";\n") if colors is None else [f' [color="{c}"];\n' for c in colors]
    return (
        f"graph {'cooccurrence' if colors is None else 'differential'} {{\n"
        f'  label="{end_date.isoformat()}";\n  node [style=filled];\n'
        + node_block
        + "".join([f'  "{ids[a]}" -- "{ids[b]}"{end}' for a, b, end in zip(lo, hi, ends)])
        + "}\n"
    )


def export_graph(
    g: Graph | SignedGraph,
    fmt: str = "dot",
    classes: Mapping[str, str] | None = None,
) -> str:
    """Serialize a network snapshot to DOT or JSON text.

    `classes` maps node id to asset class for node coloring; unmapped nodes
    are treated as class "other". Node and edge lists are sorted, so the
    same graph always serializes to identical bytes.

    The edges are mapped to the places of their ends among the sorted nodes
    and rendered by the same formatter as `snapshot_files`, so a graph and
    the `DaySnapshot` it was built from give the same text. The escaped
    node ids and the rendered node list depend only on the format, the
    sorted nodes and their classes, which stay the same from one date of a
    run to the next. They are memoized per (format, nodes, classes) for the
    16 most recently used keys, so a run that renders every date's graphs
    escapes each id and renders the node list once per format.
    """
    classes = classes or {}
    nodes = tuple(sorted(g.nodes))
    place = {n: k for k, n in enumerate(nodes)}
    signed = isinstance(g, SignedGraph)
    if signed:
        edges = [(place[a], place[b], "red") for a, b in g.red_edges]
        edges += [(place[a], place[b], "blue") for a, b in g.blue_edges]
    else:
        edges = [(place[a], place[b]) for a, b in g.edges]
    edges.sort()
    return _render(
        fmt,
        g.end_date,
        nodes,
        tuple([classes.get(n, "other") for n in nodes]),
        [e[0] for e in edges],
        [e[1] for e in edges],
        [e[2] for e in edges] if signed else None,
    )


class _PairOrder(NamedTuple):
    nodes: tuple[str, ...]  # the ids, sorted
    rank: np.ndarray  # rank[p]: the place of pair p in export order
    lo: np.ndarray  # lo[r], hi[r]: the places among `nodes` of the ends of
    hi: np.ndarray  # the pair at place r in export order, lo[r] < hi[r]


@lru_cache(maxsize=2)
def _pair_order(ids: tuple[str, ...]) -> _PairOrder:
    """Export order of the pairs of `ids`, numbered as the positions of a
    `DaySnapshot`: a pair's edge is written at the place of (lower id,
    higher id) among all such tuples sorted, so no date sorts strings.
    Three arrays of n(n-1)/2 integers, 1 MB at 300 assets; kept for the two
    most recent id tuples."""
    n = len(ids)
    ii, jj = _pair_indices(n)
    place = np.empty(n, dtype=np.intp)
    place[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    a, b = place[ii], place[jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    by_rank = np.argsort(lo * n + hi)
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    return _PairOrder(tuple(sorted(ids)), rank, lo[by_rank], hi[by_rank])


def snapshot_files(
    snap: DaySnapshot,
    formats: Sequence[str] = GRAPH_FORMATS,
    classes: Mapping[str, str] | None = None,
) -> list[tuple[str, str]]:
    """File name and text of each network of a snapshot in each format:
    `<date>.cooc.<fmt>`, and `<date>.diff.<fmt>` unless it is the first
    analyzable date. Each text is the one `export_graph` gives for the
    snapshot's graph, rendered from its edge positions without building it."""
    classes = classes or {}
    order = _pair_order(snap.asset_ids)
    node_classes = tuple([classes.get(n, "other") for n in order.nodes])
    networks = [("cooc", np.sort(order.rank[snap.cooc_pairs]), None)]
    if snap.red_pairs is not None:
        ranks = np.concatenate((order.rank[snap.red_pairs], order.rank[snap.blue_pairs]))
        by_rank = np.argsort(ranks)
        red = (by_rank < len(snap.red_pairs)).tolist()
        networks.append(("diff", ranks[by_rank], ["red" if r else "blue" for r in red]))
    day = snap.end_date.isoformat()
    edges = [(tag, order.lo[r].tolist(), order.hi[r].tolist(), colors) for tag, r, colors in networks]
    return [
        (f"{day}.{tag}.{fmt}", _render(fmt, snap.end_date, order.nodes, node_classes, lo, hi, colors))
        for fmt in formats
        for tag, lo, hi, colors in edges
    ]


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    # a float's str is its shortest round-trip repr, a date's its ISO form
    return "" if v is None else str(v)


def metrics_csv_text(rows: Sequence[MetricsRow]) -> str:
    """Render metrics rows as CSV with stable formatting.

    Floats use shortest round-trip precision and dates ISO 8601;
    differential fields that are absent (first analyzable date) serialize
    as empty fields, not zero.
    """
    out = [",".join(METRICS_COLUMNS)]
    for r in rows:
        out.append(",".join([_csv_cell(getattr(r, name)) for name in _METRICS_FIELDS]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------


def _svg_line_chart(
    title: str,
    dates: Sequence[date],
    series: Sequence[tuple[str, str, Sequence[float | None]]],
) -> str:
    """Minimal deterministic SVG line chart; gaps (None) break the line."""
    ml, mr, mt, mb = 60, 24, 34, 42
    plot_w, plot_h = CHART_WIDTH - ml - mr, CHART_HEIGHT - mt - mb
    n = len(dates)

    present = [v for _, _, vals in series for v in vals if v is not None]
    lo = min(present) if present else 0.0
    hi = max(present) if present else 1.0
    if hi == lo:
        hi = lo + 1.0

    def x(i: int) -> float:
        return ml + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)

    def y(v: float) -> float:
        return mt + (hi - v) * plot_h / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_WIDTH}" height="{CHART_HEIGHT}" '
        f'viewBox="0 0 {CHART_WIDTH} {CHART_HEIGHT}">',
        f'<rect width="{CHART_WIDTH}" height="{CHART_HEIGHT}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame and horizontal gridlines with y labels
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        yy = y(v)
        parts.append(
            f'<line x1="{ml}" y1="{yy:.2f}" x2="{CHART_WIDTH - mr}" y2="{yy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.3g}</text>'
        )
    # x tick labels: first, middle, last
    for i in sorted({0, n // 2, n - 1}):
        if 0 <= i < n:
            parts.append(
                f'<text x="{x(i):.2f}" y="{CHART_HEIGHT - 14}" text-anchor="middle" '
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
            f'<text x="{CHART_WIDTH - mr}" y="{mt + 14 * si}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_charts(result: RunResult, out_dir: Path) -> list[Path]:
    """Write gbe.svg and hubs.svg from a run's metrics series."""
    rows = result.metrics
    charts = [
        ("gbe.svg", "Graph-based entropy (bits)", [("GBE", "green", [r.gbe for r in rows])]),
        ("hubs.svg", "Differential-network hubs", [
            ("farther hubs", "red", [r.n_farther_hubs for r in rows]),
            ("closer hubs", "blue", [r.n_closer_hubs for r in rows]),
        ]),
    ]
    dates = [r.end_date for r in rows]
    for name, title, series in charts:
        write_file(out_dir / name, _svg_line_chart(title, dates, series))
    return [out_dir / name for name, _, _ in charts]


# ---------------------------------------------------------------------------
# output directory
# ---------------------------------------------------------------------------


def write_export_bundle(
    result: RunResult,
    out_dir,
    classes: Mapping[str, str] | None = None,
    graph_formats: Sequence[str] = GRAPH_FORMATS,
    charts: bool = False,
) -> None:
    """Write `metrics.csv`, the snapshots under `networks/` and, with
    `charts`, `gbe.svg` and `hubs.svg` into `out_dir`.

    Snapshots produce `<date>.cooc.<ext>` and `<date>.diff.<ext>` per
    requested format; the first analyzable date has no differential network,
    so it gets only the co-occurrence files.

    Every file is written through `write_file`, so a file left by an
    earlier run is rewritten in place and ends up with the same bytes as in
    a fresh directory. Files this call does not produce, such as snapshots
    of dates or formats no longer requested, are left as they were.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_file(out_dir / "metrics.csv", metrics_csv_text(result.metrics))

    if result.snapshots:
        net_dir = out_dir / "networks"
        net_dir.mkdir(exist_ok=True)
        prefix = os.path.join(net_dir, "")
        for d in sorted(result.snapshots):
            for name, text in snapshot_files(result.snapshots[d], graph_formats, classes):
                write_file(prefix + name, text)

    if charts:
        write_charts(result, out_dir)


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 bytes, with no newline translation.

    An existing file is rewritten in place: it is opened without O_TRUNC,
    overwritten, then cut at the end of the new bytes, so it holds exactly
    those bytes and keeps its mode. On ext4, rewriting a year of snapshots
    this way was five or more times faster than truncating each file to
    zero before writing, as `Path.write_text` does. A new file gets mode
    0o666 less the umask. The bytes go through `os.write` on the descriptor,
    without a buffered file object, which halved the cost of rewriting a
    2 kB file (10 to 4.6 us on a 2-core VM).
    """
    data = text.encode("utf-8")
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest) :]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
