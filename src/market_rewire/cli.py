"""Command-line entry point and export plumbing.

Two subcommands: `run` executes the full analysis over a price CSV +
metadata JSON and writes a metrics CSV, optional per-day network snapshots
(DOT and/or JSON), and optional SVG line charts; `gen-synthetic` writes a
seeded synthetic panel in the same input formats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from .ingest import load_panel
from .networks import Graph, MetricsRow, SignedGraph
from .pipeline import THREAD_ENV_VAR, PipelineConfig, RunResult, run
from .synth import Shock, SynthSpec, generate, write_panel

# node fill colors per asset class, following the usual market palette:
# stocks red, government bonds orange, exchange rates green-yellow,
# anything else black
CLASS_COLORS = {"stock": "red", "bond": "orange", "fx": "greenyellow", "other": "black"}

METRICS_COLUMNS = (
    "date",
    "gbe",
    "n_components",
    "n_cooc_edges",
    "n_red_edges",
    "n_blue_edges",
    "n_farther_hubs",
    "n_closer_hubs",
)

GRAPH_FORMATS = ("dot", "json")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


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


def metrics_csv_text(rows: Sequence[MetricsRow]) -> str:
    """Render metrics rows as CSV with stable formatting.

    Floats use shortest round-trip precision; differential fields that are
    absent (first analyzable date) serialize as empty fields, not zero.
    """
    out = [",".join(METRICS_COLUMNS)]

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    for r in rows:
        out.append(
            ",".join(
                [
                    r.end_date.isoformat(),
                    cell(r.gbe),
                    cell(r.n_components),
                    cell(r.n_cooc_edges),
                    cell(r.n_red_edges),
                    cell(r.n_blue_edges),
                    cell(r.n_farther_hubs),
                    cell(r.n_closer_hubs),
                ]
            )
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------


def _svg_line_chart(
    title: str,
    dates: Sequence[date],
    series: Sequence[tuple[str, str, Sequence[float | None]]],
    width: int = 960,
    height: int = 320,
) -> str:
    """Minimal deterministic SVG line chart; gaps (None) break the line."""
    ml, mr, mt, mb = 60, 24, 34, 42
    plot_w, plot_h = width - ml - mr, height - mt - mb
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame and horizontal gridlines with y labels
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
    # x tick labels: first, middle, last
    for i in sorted({0, n // 2, n - 1}):
        if 0 <= i < n:
            parts.append(
                f'<text x="{x(i):.2f}" y="{height - 14}" text-anchor="middle" '
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
            f'<text x="{width - mr}" y="{mt + 14 * si}" text-anchor="end" '
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
    gbe_path.write_text(
        _svg_line_chart("Graph-based entropy (bits)", dates, [("GBE", "green", gbe)]),
        encoding="utf-8",
        newline="",
    )
    hubs_path.write_text(
        _svg_line_chart(
            "Differential-network hubs",
            dates,
            [("farther hubs", "red", farther), ("closer hubs", "blue", closer)],
        ),
        encoding="utf-8",
        newline="",
    )
    return [gbe_path, hubs_path]


# ---------------------------------------------------------------------------
# export bundle
# ---------------------------------------------------------------------------


@dataclass
class ExportBundle:
    """Paths written by one run: the metrics CSV, the per-date network
    snapshot directory (None when no snapshots were requested), and any
    chart files."""

    metrics_csv: Path
    network_dir: Path | None = None
    charts: list[Path] = field(default_factory=list)


def write_export_bundle(
    result: RunResult,
    out_dir,
    classes: Mapping[str, str] | None = None,
    graph_formats: Sequence[str] = GRAPH_FORMATS,
    charts: bool = False,
) -> ExportBundle:
    """Write metrics.csv, network snapshots, and optional charts under `out_dir`.

    Snapshots produce `<date>.cooc.<ext>` and `<date>.diff.<ext>` per
    requested format; the first analyzable date has no differential network,
    so it gets only the co-occurrence files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    metrics_path.write_text(metrics_csv_text(result.metrics), encoding="utf-8", newline="")

    net_dir = None
    if result.snapshots:
        net_dir = out_dir / "networks"
        net_dir.mkdir(exist_ok=True)
        for d in sorted(result.snapshots):
            snap = result.snapshots[d]
            for fmt in graph_formats:
                graphs = [("cooc", snap.cooccurrence)]
                if snap.differential is not None:
                    graphs.append(("diff", snap.differential))
                for tag, g in graphs:
                    path = net_dir / f"{d.isoformat()}.{tag}.{fmt}"
                    path.write_text(export_graph(g, fmt, classes), encoding="utf-8", newline="")

    chart_paths = write_charts(result, out_dir) if charts else []
    return ExportBundle(metrics_csv=metrics_path, network_dir=net_dir, charts=chart_paths)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_snapshots(text: str):
    if text == "all":
        return "all"
    if text == "none":
        return None
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.add(date.fromisoformat(part))
        except ValueError:
            raise _UsageError(f"--snapshots: bad date {part!r} (use all, none, or ISO dates)")
    if not out:
        raise _UsageError("--snapshots: empty date list")
    return out


def _cmd_run(args) -> int:
    try:
        config = PipelineConfig(
            window_w=args.window,
            cooc_threshold=args.cooc_threshold,
            diff_threshold=args.diff_threshold,
            hub_min_degree=args.hub_degree,
            fill_policy=args.fill,
            band_halfwidth=args.band,
            snapshot_dates=_parse_snapshots(args.snapshots),
        )
    except ValueError as e:
        raise _UsageError(str(e)) from None
    if args.threads is not None and args.threads < 0:
        raise _UsageError(f"--threads must be >= 0, got {args.threads}")

    try:
        panel = load_panel(args.input, args.meta)
    except (ValueError, OSError) as e:
        print(f"error [ingest]: {e}", file=sys.stderr)
        return 2

    try:
        result = run(panel, config, threads=args.threads)
    except ValueError as e:
        print(f"error [pipeline]: {e}", file=sys.stderr)
        return 2

    try:
        formats = GRAPH_FORMATS if args.graph_format == "both" else (args.graph_format,)
        write_export_bundle(
            result,
            args.out,
            classes={m.asset_id: m.asset_class for m in panel.assets},
            graph_formats=formats,
            charts=args.charts,
        )
    except OSError as e:
        print(f"error [export]: {e}", file=sys.stderr)
        return 2

    rows = result.metrics
    min_gbe = min(rows, key=lambda r: r.gbe)
    hub_rows = [r for r in rows if r.n_closer_hubs is not None]
    max_closer = max(hub_rows, key=lambda r: r.n_closer_hubs)
    print(
        f"analyzed {len(rows)} dates | min GBE {min_gbe.gbe:.4f} on {min_gbe.end_date} | "
        f"max closer hubs {max_closer.n_closer_hubs} on {max_closer.end_date}"
    )
    return 0


def _parse_shock(text: str, index: int) -> Shock:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise _UsageError(f"--shock #{index}: expected start:end[:loading], got {text!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
        loading = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise _UsageError(f"--shock #{index}: expected start:end[:loading], got {text!r}") from None
    return Shock(start_day=start, end_day=end, factor_loading=loading)


def _parse_class_ratio(text: str, n_assets: int) -> tuple[str, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--classes: expected stock:bond:fx ratio like 1:1:1, got {text!r}")
    try:
        ratio = [int(p) for p in parts]
    except ValueError:
        raise _UsageError(f"--classes: ratio parts must be integers, got {text!r}") from None
    if any(r < 0 for r in ratio) or sum(ratio) == 0:
        raise _UsageError(f"--classes: ratio must be non-negative and non-zero, got {text!r}")
    pattern = ["stock"] * ratio[0] + ["bond"] * ratio[1] + ["fx"] * ratio[2]
    return tuple(pattern[i % len(pattern)] for i in range(n_assets))


def _cmd_gen(args) -> int:
    shocks = [_parse_shock(s, i + 1) for i, s in enumerate(args.shock or [])]
    classes = _parse_class_ratio(args.classes, args.assets) if args.classes else None
    try:
        spec = SynthSpec(
            n_assets=args.assets,
            n_days=args.days,
            seed=args.seed,
            shocks=shocks,
            class_assignment=classes,
        )
        panel = generate(spec)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    try:
        csv_path, meta_path = write_panel(panel, args.out)
    except OSError as e:
        print(f"error [export]: {e}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} and {meta_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="market-rewire",
        description=(
            "Detect relationship changes across assets: sliding-window DTW distance "
            "matrices, co-occurrence networks with graph-based entropy, and "
            "differential networks with closer/farther hub counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="analyze a price CSV and write metrics/networks/charts")
    p_run.add_argument("--input", required=True, help="price CSV (header: date,<asset_id>,...)")
    p_run.add_argument("--meta", required=True, help="asset metadata JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--window", type=int, default=20, help="trailing window width in days")
    p_run.add_argument("--cooc-threshold", type=float, default=2.0,
                       help="co-occurrence edge if distance < this")
    p_run.add_argument("--diff-threshold", type=float, default=1.0,
                       help="differential edge if |distance change| > this")
    p_run.add_argument("--hub-degree", type=int, default=3,
                       help="minimum per-color degree for a hub")
    p_run.add_argument("--fill", choices=["forward_fill", "drop_date"], default="forward_fill",
                       help="missing-data policy (forward_fill keeps rows across "
                            "mismatched holiday calendars; drop_date removes them)")
    p_run.add_argument("--snapshots", default="none",
                       help="'all', 'none', or comma-separated ISO dates to export")
    p_run.add_argument("--graph-format", choices=["dot", "json", "both"], default="both",
                       help="snapshot serialization format(s)")
    p_run.add_argument("--charts", action="store_true", help="write gbe.svg and hubs.svg")
    p_run.add_argument("--band", type=int, default=None,
                       help="optional warping band half-width (default: unconstrained)")
    p_run.add_argument("--threads", type=int, default=None,
                       help=f"worker threads for distance matrices "
                            f"(default 1; capped by ${THREAD_ENV_VAR})")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-synthetic", help="write a seeded synthetic panel CSV + metadata")
    p_gen.add_argument("--assets", type=int, required=True, help="number of assets (>= 2)")
    p_gen.add_argument("--days", type=int, required=True, help="number of trading days")
    p_gen.add_argument("--seed", type=int, required=True, help="generator seed")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--shock", action="append", metavar="START:END[:LOADING]",
                       help="co-movement episode over day indices, inclusive; repeatable")
    p_gen.add_argument("--classes", default=None, metavar="S:B:F",
                       help="stock:bond:fx ratio, e.g. 2:1:1 (default: cycle 1:1:1)")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"error [usage]: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error [data]: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as e:  # pragma: no cover - defensive
        print(f"error [internal]: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
