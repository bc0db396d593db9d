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
from itertools import groupby
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dtw import _pair_indices, _pair_positions
from .networks import Graph, MetricsRow, SignedGraph, _places
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


def _dot_escape(s: str) -> str:
    """Escape a DOT quoted-string body, so `"` and a trailing `\\` cannot end it."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


@lru_cache(maxsize=16)
def _node_block(
    fmt: str, nodes: tuple[str, ...], node_classes: tuple[str, ...]
) -> tuple[tuple[str, ...], str]:
    """The escaped id of each of the sorted `nodes`, in their order, and the
    text of their node list in `fmt`, for nodes of the given classes.
    These stay the same from one date or block of a run to the next, so
    they are memoized for the 16 most recent keys and each id is escaped
    once per format."""
    if fmt == "json":
        # json.dumps of each string keeps the C encoder's escaping
        ids = tuple([json.dumps(n) for n in nodes])
        items = [
            f'    {{\n      "id": {i},\n      "class": {json.dumps(cls)}\n    }}'
            for i, cls in zip(ids, node_classes)
        ]
        return ids, "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
    ids = tuple([_dot_escape(n) for n in nodes])
    colors = [CLASS_COLORS.get(cls, CLASS_COLORS["other"]) for cls in node_classes]
    block = "".join(
        f'  "{i}" [class="{_dot_escape(cls)}", fillcolor="{color}"];\n'
        for i, cls, color in zip(ids, node_classes, colors)
    )
    return ids, block


# What follows an edge's pair in its text, per format: the end of a
# co-occurrence edge, then of a red and of a blue one.
_EDGE_ENDS = {
    "dot": (";\n", ' [color="red"];\n', ' [color="blue"];\n'),
    "json": ("\n    }", ',\n      "color": "red"\n    }', ',\n      "color": "blue"\n    }'),
}


def _pair_texts(fmt: str, ids: Sequence[str], lo: Sequence[int], hi: Sequence[int]) -> list[str]:
    """The text of each edge e between ids[lo[e]] and ids[hi[e]], up to its
    end, with `ids` escaped for `fmt`. A JSON edge's text starts with the
    comma that separates it from the edge before."""
    if fmt == "json":
        return [f',\n    {{\n      "a": {ids[a]},\n      "b": {ids[b]}' for a, b in zip(lo, hi)]
    return [f'  "{ids[a]}" -- "{ids[b]}"' for a, b in zip(lo, hi)]


def _network_text(fmt: str, day: str, node_block: str, edges: list[str], signed: bool) -> str:
    """The file text of a network on `day` whose edge texts, each pair text
    followed by its end, are `edges` in export order."""
    body = "".join(edges)
    if fmt == "json":
        # the same text as json.dumps(payload, indent=2) + "\n", built here
        # because an indent makes json run its pure-Python encoder
        edge_list = f"[{body[1:]}\n  ]" if body else "[]"  # without the first edge's comma
        return f'{{\n  "date": "{day}",\n  "nodes": {node_block},\n  "edges": {edge_list}\n}}\n'
    return (
        f"graph {'differential' if signed else 'cooccurrence'} {{\n"
        f'  label="{day}";\n  node [style=filled];\n{node_block}{body}}}\n'
    )


def export_graph(
    g: Graph | SignedGraph,
    fmt: str = "dot",
    classes: Mapping[str, str] | None = None,
) -> str:
    """Serialize a network snapshot to DOT or JSON text.

    `classes` maps node id to asset class, a str, for node coloring;
    unmapped nodes are treated as class "other". Node and edge lists are
    sorted, so the same graph always serializes to identical bytes.

    The edges are mapped to their positions among the pairs of `g.nodes`
    and rendered as a one-date `DaySnapshot` (a `SignedGraph`'s with no
    co-occurrence edges) by `_snapshot_texts`, the renderer of
    `snapshot_files` and `write_export_bundle`, so a graph and the snapshot
    it was built from give the same text. The snapshot is built unchecked:
    the graph's own check has already found its date, distinct str nodes
    and distinct edges between them, and red and blue disjoint.
    """
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"graph format must be one of {GRAPH_FORMATS}, got {fmt!r}")
    runs = [(), g.red_edges, g.blue_edges] if isinstance(g, SignedGraph) else [g.edges]
    positions = [_pair_positions(len(g.nodes), *_places(g.nodes, edges)) for edges in runs]
    for p in positions:
        p.setflags(write=False)
    snap = DaySnapshot._unchecked(g.end_date, g.nodes, *positions)
    return list(_snapshot_texts([snap], [fmt], _checked_classes(classes)))[-1][1]


def _check_formats(formats, name: str) -> None:
    """Raise unless `formats` is a sequence of names from GRAPH_FORMATS; a
    str is not, although it iterates."""
    if isinstance(formats, str) or any(f not in GRAPH_FORMATS for f in formats):
        raise ValueError(f"{name} must be a sequence drawn from {GRAPH_FORMATS}, got {formats!r}")


def _checked_classes(classes) -> Mapping[str, str]:
    """`classes`, {} for None: a ValueError unless every value is a str."""
    if classes is None:
        return {}
    if not isinstance(classes, Mapping):
        raise ValueError(f"classes must map asset ids to class names, got {classes!r}")
    for i, cls in classes.items():
        if not isinstance(cls, str):
            raise ValueError(f"the class of asset {i!r} must be a str, got {cls!r}")
    return classes


def _snapshot_texts(
    snaps: Sequence[DaySnapshot], formats: Sequence[str], classes: Mapping[str, str]
) -> Iterator[tuple[str, str]]:
    """File name and text of each network of the snapshots `snaps`, which
    share one `asset_ids` tuple, format by format and within a format date
    by date: `<date>.cooc.<fmt>`, and `<date>.diff.<fmt>` for a snapshot
    with a differential. This is the one edge renderer: `export_graph`,
    `snapshot_files` and `write_export_bundle` all call it.

    Each edge is ranked by the `_pair_positions` of the sorted places of
    its ends, which orders pairs as (lower id, higher id) tuples, so one
    sort of the block's ids and one sort of integer keys, by (network,
    rank, end), put every edge in export order. The ends of a rank are
    `_pair_indices` read at it. The text of each distinct pair is formatted
    once per format, with no color; a file is its header, node block and
    the join of its edges' pair texts, each followed by the end that gives
    its color. Nothing is checked here: a snapshot is checked when it is
    built, and `classes` by the entry point (`_checked_classes`)."""
    ids = snaps[0].asset_ids
    n = len(ids)
    by_id = sorted(range(n), key=ids.__getitem__)
    nodes = tuple([ids[k] for k in by_id])
    node_classes = tuple([classes.get(i, "other") for i in nodes])
    # network g < len(snaps) is date g's co-occurrence, len(snaps) + d date
    # d's differential; each holds its edges by their end in _EDGE_ENDS
    empty = np.empty(0, dtype=np.intp)
    networks = [(s.cooc_pairs, empty, empty) for s in snaps]
    networks += [(empty,) * 3 if s.red_pairs is None else (empty, s.red_pairs, s.blue_pairs) for s in snaps]
    arrays = [p for net in networks for p in net]
    at = np.concatenate(arrays)
    sizes = np.fromiter(map(len, arrays), np.intp, len(arrays)).reshape(len(networks), 3)
    counts = sizes.sum(axis=1)
    place = np.empty(n, dtype=np.intp)
    place[by_id] = np.arange(n)
    ii, jj = _pair_indices(n)
    # n(n-1)/2 times each edge's network: the sort keeps every network's
    # edges in the same places, so this still holds for the sorted keys
    first = np.repeat(np.arange(len(networks)) * (n * (n - 1) // 2), counts)
    key = _pair_positions(n, place[ii[at]], place[jj[at]]) + first
    key *= 4
    key += np.repeat(np.tile(np.arange(3), len(networks)), sizes.ravel())
    key.sort()
    end = key & 3
    key >>= 2
    key -= first
    ranks, inverse = np.unique(key, return_inverse=True)
    lo, hi = ii[ranks].tolist(), jj[ranks].tolist()
    bounds = (2 * np.concatenate(([0], np.cumsum(counts)))).tolist()
    days = [s.end_date.isoformat() for s in snaps]
    for fmt in formats:
        escaped, node_block = _node_block(fmt, nodes, node_classes)
        edges = [""] * (2 * len(end))  # each edge's pair text, then its end
        edges[::2] = np.array(_pair_texts(fmt, escaped, lo, hi), dtype=object)[inverse].tolist()
        edges[1::2] = np.array(_EDGE_ENDS[fmt], dtype=object)[end].tolist()
        for d, (s, day) in enumerate(zip(snaps, days)):
            text = _network_text(fmt, day, node_block, edges[bounds[d] : bounds[d + 1]], False)
            yield f"{day}.cooc.{fmt}", text
            if s.red_pairs is not None:
                g = len(snaps) + d
                text = _network_text(fmt, day, node_block, edges[bounds[g] : bounds[g + 1]], True)
                yield f"{day}.diff.{fmt}", text


def snapshot_files(
    snap: DaySnapshot,
    formats: Sequence[str] = GRAPH_FORMATS,
    classes: Mapping[str, str] | None = None,
) -> list[tuple[str, str]]:
    """File name and text of each network of a snapshot in each format:
    `<date>.cooc.<fmt>`, and `<date>.diff.<fmt>` unless it is the first
    analyzable date. Each text is the one `export_graph` gives for the
    snapshot's graph, rendered from its edge positions without building it."""
    _check_formats(formats, "formats")
    return list(_snapshot_texts([snap], formats, _checked_classes(classes)))


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


# Edges of the snapshots that `write_export_bundle` renders together: one
# sort and one formatting of each distinct pair per block, and a bounded
# number of edge texts held. Fastest of 15-30 calls (2-core AVX-512 Xeon VM,
# busy host), with the traced peak of a 60-asset x 150-day export (69,448
# edges): at 20 assets x 252 days (9,440 edges) 10.9-11.2 ms at 2,048,
# 10.4-11.2 at 4,096, 11.1-15.9 at 8,192, 10.2-11.0 at 16,384 and 9.9-10.2
# at 32,768; at 60 x 150 28.6-29.4, 23.4-27.7, 20.2-29.2, 19.0-20.8 and
# 17.2-19.8 ms, holding 0.56, 0.66, 1.02, 1.65 and 2.98 MB.
_EXPORT_BLOCK_EDGES = 16_384


def _export_blocks(snaps: Sequence[DaySnapshot]) -> Iterator[list[DaySnapshot]]:
    """The snapshots, in their order, in runs that share one `asset_ids`
    tuple and hold at most _EXPORT_BLOCK_EDGES edges, or one snapshot."""
    block, edges = [], 0
    for snap in snaps:
        k = sum(len(p) for p in (snap.cooc_pairs, snap.red_pairs, snap.blue_pairs) if p is not None)
        if block and (edges + k > _EXPORT_BLOCK_EDGES or snap.asset_ids != block[0].asset_ids):
            yield block
            block, edges = [], 0
        block.append(snap)
        edges += k
    if block:
        yield block


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

    The snapshots are rendered a block of consecutive dates at a time
    (`_export_blocks`), and each file is written as soon as its text is
    ready. Every file is written through `write_file`, so a file left by an
    earlier run is rewritten in place and ends up with the same bytes as in
    a fresh directory. Files this call does not produce, such as snapshots
    of dates or formats no longer requested, are left as they were.
    `graph_formats` and `classes` are checked before anything is written.
    """
    _check_formats(graph_formats, "graph_formats")
    classes = _checked_classes(classes)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_file(out_dir / "metrics.csv", metrics_csv_text(result.metrics))

    if result.snapshots:
        net_dir = out_dir / "networks"
        net_dir.mkdir(exist_ok=True)
        prefix = os.path.join(net_dir, "")
        for block in _export_blocks([result.snapshots[d] for d in sorted(result.snapshots)]):
            for name, text in _snapshot_texts(block, graph_formats, classes):
                write_file(prefix + name, text)

    if charts:
        write_charts(result, out_dir)


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 bytes, with no newline translation.

    An existing file is rewritten in place: it is opened without O_TRUNC
    and overwritten, and only a file that was longer than the new bytes is
    then cut at their end (its size is read with a seek to its end), so it
    holds exactly those bytes and keeps its mode. On ext4, rewriting a year
    of snapshots this way was five or more times faster than truncating
    each file to zero before writing, as `Path.write_text` does; skipping
    the cut where the size already fits took the 933 rewrites of a 20-asset
    year's `--snapshots all --charts` export from 6.2-6.7 to 5.0-5.2 ms
    (mean of the fastest 20 of 200 calls, 2-core VM). A new file gets mode
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
        if os.lseek(fd, 0, os.SEEK_END) > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
