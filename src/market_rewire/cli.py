"""Command-line entry point.

Two subcommands: `run` executes the full analysis over a price CSV +
metadata JSON and writes a metrics CSV, optional per-day network snapshots
(DOT and/or JSON), and optional SVG line charts into an output directory
laid out by `market_rewire.export.write_export_bundle`; `gen-synthetic`
writes a seeded synthetic panel in the same input formats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import dataclasses
import os
import sys
from datetime import date
from typing import Sequence

# METRICS_COLUMNS is unused here; the benchmark reads it as cli.METRICS_COLUMNS
from .export import GRAPH_FORMATS, METRICS_COLUMNS, write_export_bundle  # noqa: F401
from .ingest import FILL_POLICIES, _check_int, load_panel
from .pipeline import PipelineConfig, run
from .synth import Shock, SynthSpec, generate, write_panel


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


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
            **{f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)}
        )
        _check_int(args.threads, "--threads", 0, none_ok=True)
    except ValueError as e:
        raise _UsageError(str(e)) from None

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
        classes = {m.asset_id: m.asset_class for m in panel.assets}
        write_export_bundle(result, args.out, classes, formats, charts=args.charts)
    except OSError as e:
        print(f"error [export]: {e}", file=sys.stderr)
        return 2

    dates, gbe, counts = result._columns  # counts[5] is the closer hubs
    low, top = int(gbe.argmin()), int(counts[5].argmax())  # the first of each; an absent count, -1, is never the top
    return _summary(
        f"analyzed {len(dates)} dates | min GBE {gbe[low]:.4f} on {dates[low]} | "
        f"max closer hubs {counts[5, top]} on {dates[top]}"
    )


def _summary(line: str) -> int:
    """Print a command's summary line: 0, or 2 where stdout cannot take it,
    such as a pipe whose reader has gone, reported as an export error."""
    try:
        print(line, flush=True)
    except OSError as e:
        print(f"error [export]: stdout: {e}", file=sys.stderr)
        # stdout still holds the line; the interpreter's flush at exit would fail on it too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
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
    return _summary(f"wrote {csv_path} and {meta_path}")


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
    # a PipelineConfig field's flag stores under the field's name, and the
    # set_defaults call below gives it the field's default
    p_run.add_argument("--window", dest="window_w", metavar="WINDOW", type=int,
                       help="trailing window width in days")
    p_run.add_argument("--cooc-threshold", type=float, help="co-occurrence edge if distance < this")
    p_run.add_argument("--diff-threshold", type=float,
                       help="differential edge if |distance change| > this")
    p_run.add_argument("--hub-degree", dest="hub_min_degree", metavar="HUB_DEGREE", type=int,
                       help="minimum per-color degree for a hub")
    p_run.add_argument("--fill", dest="fill_policy", choices=FILL_POLICIES,
                       help="missing-data policy (forward_fill keeps rows across "
                            "mismatched holiday calendars; drop_date removes them)")
    p_run.add_argument("--snapshots", dest="snapshot_dates", metavar="SNAPSHOTS",
                       type=_parse_snapshots,
                       help="'all', 'none', or comma-separated ISO dates to export")
    p_run.add_argument("--graph-format", choices=[*GRAPH_FORMATS, "both"], default="both",
                       help="snapshot serialization format(s)")
    p_run.add_argument("--charts", action="store_true", help="write gbe.svg and hubs.svg")
    p_run.add_argument("--band", dest="band_halfwidth", metavar="BAND", type=int,
                       help="optional warping band half-width (default: unconstrained)")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker threads for the DTW kernel calls of the blocks of dates "
                            "(default and 0: one; capped by the blocks and the usable CPUs, "
                            "and one where a block's DTW work is too small to hand out)")
    p_run.set_defaults(func=_cmd_run, **dataclasses.asdict(PipelineConfig()))

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
    except Exception as e:  # pragma: no cover - defensive
        print(f"error [internal]: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
