"""Output formats: the metrics CSV, DOT/JSON network snapshots and SVG charts.

Every renderer is deterministic: lists are sorted and numbers are formatted
the same way every time, so one run's outputs are identical bytes whatever
the thread count.
"""

import json
import os
from dataclasses import fields
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from .networks import Graph, MetricsRow, SignedGraph
from .pipeline import RunResult

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


def _sorted_signed_edges(sg: SignedGraph) -> list[tuple[str, str, str]]:
    tagged = [(a, b, "red") for a, b in sg.red_edges]
    tagged += [(a, b, "blue") for a, b in sg.blue_edges]
    return sorted(tagged)


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _dot_escape(s: str) -> str:
    """Escape a DOT quoted-string body, so `"` and a trailing `\\` cannot end it."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(
    g: Graph | SignedGraph,
    fmt: str = "dot",
    classes: Mapping[str, str] | None = None,
) -> str:
    """Serialize a network snapshot to DOT or JSON text.

    `classes` maps node id to asset class for node coloring; unmapped nodes
    are treated as class "other". Node and edge lists are sorted, so the
    same graph always serializes to identical bytes.
    """
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"graph format must be one of {GRAPH_FORMATS}, got {fmt!r}")
    classes = classes or {}
    nodes = sorted(g.nodes)
    signed = isinstance(g, SignedGraph)
    edges = _sorted_signed_edges(g) if signed else sorted(g.edges)

    if fmt == "json":
        # the same text as json.dumps(payload, indent=2) + "\n", built here
        # because an indent makes json run its pure-Python encoder;
        # json.dumps of each string keeps the C encoder's escaping
        ids = {n: json.dumps(n) for n in nodes}
        node_items = [
            f'    {{\n      "id": {ids[n]},\n'
            f'      "class": {json.dumps(classes.get(n, "other"))}\n    }}'
            for n in nodes
        ]
        edge_items = [
            f'    {{\n      "a": {ids[e[0]]},\n      "b": {ids[e[1]]}'
            + (f',\n      "color": "{e[2]}"\n    }}' if signed else "\n    }")
            for e in edges
        ]
        return (
            f'{{\n  "date": "{g.end_date.isoformat()}",\n'
            f'  "nodes": {_json_list(node_items)},\n'
            f'  "edges": {_json_list(edge_items)}\n}}\n'
        )

    ids = {n: _dot_escape(n) for n in nodes}
    lines = [f"graph {'differential' if signed else 'cooccurrence'} {{"]
    lines.append(f'  label="{g.end_date.isoformat()}";')
    lines.append("  node [style=filled];")
    for n in nodes:
        cls = classes.get(n, "other")
        color = CLASS_COLORS.get(cls, CLASS_COLORS["other"])
        lines.append(f'  "{ids[n]}" [class="{_dot_escape(cls)}", fillcolor="{color}"];')
    if signed:
        for a, b, c in edges:
            lines.append(f'  "{ids[a]}" -- "{ids[b]}" [color="{c}"];')
    else:
        for a, b in edges:
            lines.append(f'  "{ids[a]}" -- "{ids[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
        segment: list[str] = []
        segments: list[list[str]] = []
        for i, v in enumerate(vals):
            if v is None:
                if segment:
                    segments.append(segment)
                    segment = []
                continue
            segment.append(f"{x(i):.2f},{y(v):.2f}")
        if segment:
            segments.append(segment)
        for seg in segments:
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
    dates = [r.end_date for r in result.metrics]
    gbe = [r.gbe for r in result.metrics]
    farther = [r.n_farther_hubs for r in result.metrics]
    closer = [r.n_closer_hubs for r in result.metrics]
    gbe_path = out_dir / "gbe.svg"
    hubs_path = out_dir / "hubs.svg"
    write_file(
        gbe_path,
        _svg_line_chart("Graph-based entropy (bits)", dates, [("GBE", "green", gbe)]),
    )
    write_file(
        hubs_path,
        _svg_line_chart(
            "Differential-network hubs",
            dates,
            [("farther hubs", "red", farther), ("closer hubs", "blue", closer)],
        ),
    )
    return [gbe_path, hubs_path]


# ---------------------------------------------------------------------------
# file writer
# ---------------------------------------------------------------------------


def write_file(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 bytes, with no newline translation.

    An existing file is rewritten in place: it is opened without O_TRUNC,
    overwritten, then cut at the end of the new bytes, so it holds exactly
    those bytes and keeps its mode. On ext4, rewriting a year of snapshots
    this way was five or more times faster than truncating each file to
    zero before writing, as `Path.write_text` does. A new file gets mode
    0o666 less the umask.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as f:
        f.write(text.encode("utf-8"))
        f.truncate()
