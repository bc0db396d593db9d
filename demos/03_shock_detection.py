"""End-to-end regime-change detection on a synthetic year.

Generates 20 assets over 260 trading days with a co-movement shock on days
150-190 (think of a global risk event folding every market into one move),
runs the full per-day pipeline, and shows how the two headline series react:
graph-based entropy collapses while the shock is in force, and closer-hub
counts burst exactly when the rewiring happens, at onset. Writes the metrics
CSV and SVG charts under demos/output/shock/.
"""

from pathlib import Path

from market_rewire import PipelineConfig, Shock, SynthSpec, generate, run
from market_rewire.export import write_export_bundle

panel = generate(
    SynthSpec(
        n_assets=20,
        n_days=260,
        seed=42,
        shocks=[Shock(start_day=150, end_day=190, factor_loading=0.95)],
    )
)
result = run(panel, PipelineConfig(snapshot_dates=None))
rows = result.metrics
print(f"analyzed {len(rows)} dates from {rows[0].end_date} to {rows[-1].end_date}\n")

print("date        entropy  comps  closer-hubs  farther-hubs")
for i, row in enumerate(rows):
    t = i + 19  # panel day index of this row
    marker = "  << shock" if 150 <= t <= 190 else ""
    if t % 10 == 0 or t in (150, 151, 152, 191, 192):
        ch = "-" if row.n_closer_hubs is None else row.n_closer_hubs
        fh = "-" if row.n_farther_hubs is None else row.n_farther_hubs
        print(f"{row.end_date}  {row.gbe:7.3f}  {row.n_components:5d}  {ch!s:>11}  {fh!s:>12}{marker}")

trough = min(rows, key=lambda r: r.gbe)
burst = max((r for r in rows if r.n_closer_hubs is not None), key=lambda r: r.n_closer_hubs)
print(f"\nentropy trough : {trough.gbe:.3f} bits on {trough.end_date}")
print(f"closer-hub peak: {burst.n_closer_hubs} on {burst.end_date}")

out = Path(__file__).parent / "output" / "shock"
write_export_bundle(result, out, charts=True)
print(f"\nwrote {out}/metrics.csv, gbe.svg, hubs.svg")
