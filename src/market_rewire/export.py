"""Output formats: the metrics CSV, DOT/JSON network snapshots and SVG
charts, and the layout of the output directory they are written to.

A `RunResult` holds only arrays, and the files are written from them: the
CSV and the charts from its metric columns and the snapshot files from its
blocks' edge positions, with no `MetricsRow` or `DaySnapshot` built.

Every renderer is deterministic: lists are sorted and numbers are formatted
the same way every time, so one run's outputs are identical bytes whatever
the thread count.
"""

import json
import os
from dataclasses import fields
from datetime import date
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import _native
from .dtw import _pair_indices, _pair_positions
from .networks import Graph, MetricsRow, SignedGraph, _Columns, _places
from .pipeline import DaySnapshot, RunResult, _edge_block, _EdgeBlock

# node fill colors per asset class, following the usual market palette:
# stocks red, government bonds orange, exchange rates green-yellow,
# anything else black
CLASS_COLORS = {"stock": "red", "bond": "orange", "fx": "greenyellow", "other": "black"}

# one column per MetricsRow field, in field order; end_date is headed "date"
METRICS_COLUMNS = ("date",) + tuple(f.name for f in fields(MetricsRow))[1:]

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
) -> tuple[tuple[str, ...], bytes]:
    """The escaped id of each of the sorted `nodes`, in their order, and the
    UTF-8 of their node list in `fmt`, for nodes of the given classes, up to
    the edge list (in JSON, its key). These stay the same from one date or
    block of a run to the next, so they are memoized for the 16 most recent
    keys and each id is escaped once per format."""
    if fmt == "json":
        # json.dumps of each string keeps the C encoder's escaping
        ids = tuple([json.dumps(n) for n in nodes])
        items = [
            f'    {{\n      "id": {i},\n      "class": {json.dumps(cls)}\n    }}'
            for i, cls in zip(ids, node_classes)
        ]
        block = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
        return ids, (block + ',\n  "edges": ').encode()
    ids = tuple([_dot_escape(n) for n in nodes])
    colors = [CLASS_COLORS.get(cls, CLASS_COLORS["other"]) for cls in node_classes]
    block = "".join(
        f'  "{i}" [class="{_dot_escape(cls)}", fillcolor="{color}"];\n'
        for i, cls, color in zip(ids, node_classes, colors)
    )
    return ids, block.encode()


# The pieces a snapshot file of each format shares with every other, as
# the first pieces of its block's piece table: the head of a co-occurrence
# and of a differential network, up to the date; what follows the date, up
# to the node block; the tail of a file with edges and of one without; the
# end of a co-occurrence, red and blue edge, after its pair; and the name
# suffixes of the two networks, each ending in the NUL that the compiled
# writer opens it by. A JSON file is the text of json.dumps(payload,
# indent=2) + "\n", built here because an indent makes json run its
# pure-Python encoder.
_CONSTANT_PIECES = {
    "dot": (
        b'graph cooccurrence {\n  label="', b'graph differential {\n  label="', b'";\n  node [style=filled];\n',
        b"}\n", b"}\n", b";\n", b' [color="red"];\n', b' [color="blue"];\n', b".cooc.dot\0", b".diff.dot\0",
    ),
    "json": (
        b'{\n  "date": "', b'{\n  "date": "', b'",\n  "nodes": ', b"\n  ]\n}\n", b"[]\n}\n",
        b"\n    }", b',\n      "color": "red"\n    }', b',\n      "color": "blue"\n    }',
        b".cooc.json\0", b".diff.json\0",
    ),
}
# The node block's piece number in each format's table, and the first
# date's; the dates are followed by the pair texts, then by their
# first-edge variants
_NODE_PIECE = 10
_DATE_PIECES = 11


class _PieceTable(NamedTuple):
    """The snapshot files of an export block, as pieces of `table`, piece i
    being its bytes offsets[i] .. offsets[i + 1] - 1: file f is pieces
    index[starts[f]], .., index[starts[f + 1] - 1] joined, and its name
    pieces names[2f] and names[2f + 1] joined, without the final NUL."""

    table: bytes
    offsets: np.ndarray
    index: np.ndarray
    starts: np.ndarray
    names: np.ndarray

    def name(self, f: int) -> str:
        """The name of file f."""
        a, b = self.names[2 * f : 2 * f + 2].tolist()
        o = self.offsets.tolist()
        return (self.table[o[a] : o[a + 1]] + self.table[o[b] : o[b + 1] - 1]).decode()

    def files(self) -> Iterator[tuple[str, bytes]]:
        """Name and bytes of each file, joined here, in Python."""
        offsets = self.offsets.tolist()
        pieces = np.empty(len(offsets) - 1, dtype=object)
        pieces[:] = [self.table[a:b] for a, b in zip(offsets, offsets[1:])]
        texts, names, starts = pieces[self.index].tolist(), pieces[self.names].tolist(), self.starts.tolist()
        for f in range(len(starts) - 1):
            name = names[2 * f] + names[2 * f + 1][:-1]
            yield name.decode(), b"".join(texts[starts[f] : starts[f + 1]])


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
    and rendered as a one-date `_EdgeBlock` (a `SignedGraph`'s with no
    co-occurrence edges) by `_snapshot_texts`, the renderer of
    `snapshot_files` and `write_export_bundle`, so a graph and the snapshot
    it was built from give the same text. Nothing more is checked: the
    graph's own check has already found its date, distinct str nodes and
    distinct edges between them, and red and blue disjoint.
    """
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"graph format must be one of {GRAPH_FORMATS}, got {fmt!r}")
    runs = [(), g.red_edges, g.blue_edges] if isinstance(g, SignedGraph) else [g.edges]
    positions = [_pair_positions(len(g.nodes), *_places(g.nodes, edges)) for edges in runs]
    block = _edge_block(g.nodes, g.end_date, *positions)
    return list(_snapshot_texts([block], [fmt], _checked_classes(classes)).files())[-1][1].decode()


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


@lru_cache(maxsize=2)
def _id_order(ids: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted `ids`, and 4 times the rank of each pair of `ids`, in
    `_pair_indices` order, among the pairs of the sorted ids: the
    `_pair_positions` of the sorted places of its ends, which orders pairs
    as (lower id, higher id) tuples. A run's snapshots share one `ids`
    tuple, so this is memoized for the two most recent."""
    n = len(ids)
    by_id = sorted(range(n), key=ids.__getitem__)
    place = np.empty(n, dtype=np.intp)
    place[by_id] = np.arange(n)
    ii, jj = _pair_indices(n)
    rank = 4 * _pair_positions(n, place[ii], place[jj])
    rank.setflags(write=False)
    return tuple([ids[k] for k in by_id]), rank


def _snapshot_texts(
    blocks: Sequence[_EdgeBlock], formats: Sequence[str], classes: Mapping[str, str]
) -> _PieceTable:
    """The snapshot files of the dates of `blocks`, consecutive blocks over
    one ids tuple, as one piece table: format by format and within a format
    date by date, `<date>.cooc.<fmt>`, and `<date>.diff.<fmt>` for a date
    with a differential. This is the one edge renderer: `export_graph`,
    `snapshot_files` and `write_export_bundle` all call it.

    Each edge is keyed by its file, its pair's rank among the sorted ids
    (`_id_order`) and its end, so one sort of integer keys puts every edge
    in export order. The distinct ranks are read off a mask over the pairs,
    and their ends are `_pair_indices` read at them. Each format's table
    holds its `_CONSTANT_PIECES`, the node block, the dates, and the text
    of each distinct pair, with no color, formatted once, then again as the
    first edge of a list, which in JSON opens it instead of following a
    comma. A file is its head, date, node block, its edges' pair texts each
    followed by the end that gives its color, and its tail. The tables of
    the formats are laid out alike, so the piece indices of every file are
    built once and shifted for each format. Nothing is checked here: a
    snapshot is checked when it is built, and `classes` by the entry point
    (`_checked_classes`)."""
    ids = blocks[0].ids
    n, days, m = len(ids), sum(len(b.dates) for b in blocks), len(ids) * (len(ids) - 1) // 2
    nodes, rank = _id_order(ids)
    node_classes = tuple([classes.get(i, "other") for i in nodes])
    # File slot 2d is date d's co-occurrence network and 2d + 1 its
    # differential, where it has one. Run q of a block of k dates is network
    # c = q // k of its date q % k, and an edge's end is c: 0 for a
    # co-occurrence edge, 1 for a red one and 2 for a blue one.
    key, first = [], 0
    for b in blocks:
        network, day = np.divmod(np.arange(3 * len(b.dates)), len(b.dates))
        key.append(np.repeat(4 * m * (2 * (first + day) + (network > 0)) + network, np.diff(b.starts)) + rank[b.at])
        first += len(b.dates)
    key = np.concatenate(key)
    key.sort()
    end = key & 3
    key >>= 2
    key %= max(m, 1)
    # the distinct ranks, ascending, and each edge's place among them, which
    # becomes the number of its pair text in the first format's table
    present = np.zeros(m, bool)
    present[key] = True
    ranks = np.flatnonzero(present)
    pair = np.cumsum(present, dtype=np.int32).take(key)
    pair += _DATE_PIECES + days - 1
    ii, jj = _pair_indices(n)
    lo, hi = ii[ranks].tolist(), jj[ranks].tolist()

    # Each file: its head, date, what follows the date and the node block,
    # then two pieces an edge, and its tail. Edge k of file f goes at the
    # file's start, 5f plus twice the edges before it, plus 4 + 2k, and its
    # pair text is the first-edge variant for k = 0. Row 0 of `index` holds
    # the first format's piece numbers, row k the same shifted by k tables.
    slots = np.flatnonzero(np.column_stack((np.ones(days, bool), np.concatenate([b.diff for b in blocks]))))
    sizes = np.concatenate([np.diff(b.starts).reshape(3, -1) for b in blocks], axis=1)
    edges = np.column_stack((sizes[0], sizes[1] + sizes[2])).ravel()[slots]
    starts = np.zeros(len(slots) + 1, np.int64)
    np.cumsum(2 * edges + 5, out=starts[1:])
    shift = (_DATE_PIECES + days + 2 * len(ranks)) * np.arange(len(formats), dtype=np.int32)[:, None]
    index = np.empty((max(len(formats), 1), starts[-1]), np.int32)
    row, head = index[0], starts[:-1]
    row[head] = slots & 1
    row[head + 1] = _DATE_PIECES + slots // 2
    row[head + 2] = 2
    row[head + 3] = _NODE_PIECE
    row[starts[1:] - 1] = 3 + (edges == 0)
    pair[(head - 5 * np.arange(len(slots)))[edges > 0] // 2] += len(ranks)
    at = np.repeat(5 * np.arange(len(slots)) + 4, edges)
    at += 2 * np.arange(len(end))
    row[at] = pair
    at += 1
    end += 5
    row[at] = end
    np.add(row, shift[1:], out=index[1:])
    names = np.empty((len(slots), 2), np.int32)
    names[:, 0] = _DATE_PIECES + slots // 2
    names[:, 1] = 8 + (slots & 1)
    del key, pair, at, end  # freed before the texts are built

    dates = [d.isoformat().encode() for b in blocks for d in b.dates]
    date_lengths = np.fromiter(map(len, dates), np.int64, days)
    pieces, lengths = [], []
    for fmt in formats:
        escaped, node_block = _node_block(fmt, nodes, node_classes)
        if fmt == "json":
            pairs = [f',\n    {{\n      "a": {escaped[a]},\n      "b": {escaped[b]}'.encode() for a, b in zip(lo, hi)]
            first_pairs = [b"[" + p[1:] for p in pairs]
        else:
            pairs = first_pairs = [f'  "{escaped[a]}" -- "{escaped[b]}"'.encode() for a, b in zip(lo, hi)]
        pieces += [*_CONSTANT_PIECES[fmt], node_block, *dates, *pairs, *first_pairs]
        pair_lengths = np.fromiter(map(len, pairs), np.int64, len(pairs))
        lengths += [[*map(len, _CONSTANT_PIECES[fmt]), len(node_block)], date_lengths, pair_lengths, pair_lengths]
    offsets = np.zeros(len(pieces) + 1, np.int64)
    if lengths:
        np.cumsum(np.concatenate(lengths), out=offsets[1:])
    return _PieceTable(
        b"".join(pieces),
        offsets,
        index[: len(formats)].ravel(),
        np.concatenate((starts[:1], (starts[1:] + np.arange(len(formats))[:, None] * starts[-1]).ravel())),
        (names.ravel() + shift).ravel(),
    )


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
    texts = _snapshot_texts(RunResult(snapshots={snap.end_date: snap})._blocks, formats, _checked_classes(classes))
    return [(name, data.decode()) for name, data in texts.files()]


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------


def metrics_csv_text(rows: Sequence[MetricsRow]) -> str:
    """Render metrics rows as CSV with stable formatting.

    Floats use shortest round-trip precision and dates ISO 8601;
    differential fields that are absent (first analyzable date) serialize
    as empty fields, not zero.
    """
    return _csv_text(_Columns.of(rows))


def _csv_text(columns: _Columns) -> str:
    """The metrics CSV of `columns`: a float's str is its shortest
    round-trip repr, a date's its ISO form, and an absent count is empty."""
    values, at = np.unique(columns.counts, return_inverse=True)  # each distinct count formatted once
    counts = np.array(["" if v < 0 else str(v) for v in values.tolist()], object)[at].reshape(6, -1).tolist()
    lines = map(",".join, zip(map(date.isoformat, columns.end_dates), map(str, columns.gbe.tolist()), *counts))
    return "\n".join([",".join(METRICS_COLUMNS), *lines]) + "\n"


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------


def _svg_line_chart(title: str, dates: Sequence[date], series: Sequence[tuple[str, str, np.ndarray]]) -> str:
    """Minimal deterministic SVG line chart; gaps (NaN) break the line. The
    coordinates are numpy's float64 operations in Python's order."""
    ml, mr, mt, mb = 60, 24, 34, 42
    plot_w, plot_h = CHART_WIDTH - ml - mr, CHART_HEIGHT - mt - mb
    n = len(dates)

    present = np.concatenate([vals for _, _, vals in series])
    present = present[~np.isnan(present)]
    lo = present.min().item() if present.size else 0.0
    hi = present.max().item() if present.size else 1.0
    if hi == lo:  # from 2**53 on, adding 1.0 may leave lo as it is; a relative step never does
        hi = lo + 1.0 if lo + 1.0 != lo else lo + abs(lo) * 2**-52
    x = ml + (plot_w * np.arange(n) / (n - 1) if n > 1 else np.full(n, plot_w / 2))

    def y(v: np.ndarray) -> np.ndarray:
        return mt + (hi - v) * plot_h / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_WIDTH}" height="{CHART_HEIGHT}" '
        f'viewBox="0 0 {CHART_WIDTH} {CHART_HEIGHT}">',
        f'<rect width="{CHART_WIDTH}" height="{CHART_HEIGHT}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame and horizontal gridlines with y labels
    grid = lo + (hi - lo) * np.arange(5) / 4
    for v, yy in zip(grid.tolist(), y(grid).tolist()):
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
                f'<text x="{x[i]:.2f}" y="{CHART_HEIGHT - 14}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{dates[i].isoformat()}</text>'
            )
    for si, (label, color, vals) in enumerate(series):
        at = np.flatnonzero(~np.isnan(vals))
        points = list(map("{:.2f},{:.2f}".format, x[at].tolist(), y(vals[at]).tolist()))
        # where each run of consecutive dates with a value starts in `points`, then its length
        cuts = np.flatnonzero(np.diff(at, prepend=-2, append=n + 1) > 1).tolist()
        for seg in [points[a:b] for a, b in zip(cuts, cuts[1:])]:
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
    columns = result._columns
    farther, closer = np.where(columns.counts[4:] < 0, np.nan, columns.counts[4:])
    charts = [
        ("gbe.svg", "Graph-based entropy (bits)", [("GBE", "green", columns.gbe)]),
        ("hubs.svg", "Differential-network hubs", [("farther hubs", "red", farther), ("closer hubs", "blue", closer)]),
    ]
    for name, title, series in charts:
        write_file(out_dir / name, _svg_line_chart(title, columns.end_dates, series))
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


def _export_blocks(blocks: Iterable[_EdgeBlock]) -> Iterator[list[_EdgeBlock]]:
    """The blocks, in their order, in groups that share one ids tuple and
    hold at most _EXPORT_BLOCK_EDGES edges, or one block. A run's block is
    not split: a date has at most two edges a pair, so a block of more than
    one date holds at most 2 x `pipeline._BLOCK_DOUBLES`."""
    group, edges = [], 0
    for b in blocks:
        k = int(b.starts[-1])
        if group and (edges + k > _EXPORT_BLOCK_EDGES or b.ids != group[0].ids):
            yield group
            group, edges = [], 0
        group.append(b)
        edges += k
    if group:
        yield group


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

    The metrics CSV and the charts are read off the result's metric columns
    and the snapshots off its edge blocks, the one form a `RunResult`
    keeps, rendered a block of consecutive dates at a time
    (`_export_blocks`) as one piece table (`_snapshot_texts`). Where the
    compiled library loaded (`_native.lib`), its `write_files` assembles
    and writes all of a block's files in one call, with no text built per
    file in Python; else each file's pieces are joined in Python and
    written by `write_file`. Either way a file left by an earlier run is
    rewritten in place as `write_file` does it and ends up with the same
    bytes as in a fresh directory, and a file that cannot be written raises
    the OSError that opening it with `os.open` raises, after the files
    before it. Files this call does not produce, such as snapshots of dates
    or formats no longer requested, are left as they were. `graph_formats`
    and `classes` are checked before anything is written.
    """
    _check_formats(graph_formats, "graph_formats")
    classes = _checked_classes(classes)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_file(out_dir / "metrics.csv", _csv_text(result._columns))

    if result._blocks:
        net_dir = out_dir / "networks"
        net_dir.mkdir(exist_ok=True)
        prefix = os.path.join(net_dir, "")
        blocks = _export_blocks(result._blocks)
        if _native.lib is None:
            for block in blocks:
                for name, data in _snapshot_texts(block, graph_formats, classes).files():
                    write_file(prefix + name, data)
        else:
            dirfd = os.open(net_dir, os.O_RDONLY)
            try:
                for block in blocks:
                    _write_files(dirfd, prefix, _snapshot_texts(block, graph_formats, classes))
            finally:
                os.close(dirfd)

    if charts:
        write_charts(result, out_dir)


def _write_files(dirfd: int, prefix: str, t: _PieceTable) -> None:
    """Write the files of `t` into the directory `dirfd`, whose path is
    `prefix`, by one call of the compiled `write_files`, from a scratch
    array sized by a first call to hold the largest file and its name."""
    args = (
        dirfd, t.table, t.offsets.ctypes.data, t.index.ctypes.data, t.starts.ctypes.data,
        t.names.ctypes.data, len(t.starts) - 1,
    )
    buf, error = np.empty(_native.lib.write_files(*args, None, None), np.uint8), np.zeros(1, np.int64)
    f = _native.lib.write_files(*args, buf.ctypes.data, error.ctypes.data)
    if f >= 0:
        code = int(error[0])
        raise OSError(code, os.strerror(code), prefix + t.name(f))


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path, text: str | bytes) -> None:
    """Write `text`, a str as its UTF-8 bytes or bytes as they are, to
    `path`, with no newline translation.

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
    2 kB file (10 to 4.6 us on a 2-core VM). The compiled `write_files`
    writes an export block's snapshot files by the same steps.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest) :]
        if os.lseek(fd, 0, os.SEEK_END) > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
