"""The benchmark's workloads: seeded inputs, the timed call, and its checks.

Each workload builds its inputs from the seed in set-up; the program only
ever sees the generated panel (`backfill_wide`) or the written CSV and JSON
files (`history_cli`). Pipeline settings are the defaults (w=20).
"""

import hashlib
import json
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from datetime import date
from io import StringIO
from pathlib import Path

import numpy as np

from market_rewire import (
    PipelineConfig,
    PricePanel,
    Shock,
    SynthSpec,
    cli,
    distance_matrix,
    generate,
    pipeline,
    windows_at,
    write_panel,
)

from checks import Checker, reference_row, row_dict, rows_match, scalar_sample

CONFIG = PipelineConfig()
W = CONFIG.window_w


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


SPOT_PAIRS = 20  # scalar-DTW pairs per spot-checked date
SPOT_DAYS = 5  # dates of history_cli checked against the references


def spot_check(panel, t, rows_by_date, rng, ck: Checker):
    """Check date index `t` against references built here: a scalar-DTW
    sample of its distance matrix, then its metrics row from our own
    network code. Returns the day's and previous day's matrices."""
    wins = windows_at(panel, t, W)
    dm = distance_matrix(wins)
    scalar_sample(np.stack([w.values for w in wins]), dm.d, dm.end_date, SPOT_PAIRS, rng, ck)
    prev = distance_matrix(windows_at(panel, t - 1, W)).d if t >= W else None
    got = rows_by_date.get(panel.dates[t])
    ck.check(
        got is not None and rows_match(got, reference_row(dm.d, prev, CONFIG)),
        f"metrics row for {panel.dates[t]} differs from the reference",
    )
    return dm, prev


class Workload:
    """A batch workload; `call` is the timed region. Calls go through the
    module attributes `pipeline.run` and `cli.main`, so that the traced
    pass's wrappers apply."""

    name: str
    rows_per_call: int
    threads: int  # worker threads of the timed call
    pairs_per_day = 20  # scalar-DTW pairs per date of the traced pass

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)

    def shape(self) -> str:
        raise NotImplementedError

    def make_inputs(self, dest: Path) -> None:
        """Set-up: generate (and write) the inputs. Deterministic in the seed."""
        raise NotImplementedError

    def warm_up(self, ck: Checker) -> None:
        """Untimed work before the first timed call."""

    def call(self, threads: int):
        raise NotImplementedError

    def check(self, results, ck: Checker) -> None:
        """Check results of untraced calls."""
        raise NotImplementedError

    def collect(self, result):
        """What is kept of a call's result; runs outside the timed region."""
        return result

    def written(self, result) -> tuple[int, int]:
        """Files and bytes a call wrote."""
        return 0, 0


class BackfillWide(Workload):
    """200 assets x 60 days, complete panel; one `run(panel, threads=nproc)`."""

    name = "backfill_wide"

    def __init__(self, seed, work_dir, n_assets=200, n_days=60):
        super().__init__(seed, work_dir)
        self.n_assets, self.n_days = n_assets, n_days
        self.rows_per_call = n_days - W + 1
        self.threads = nproc()

    def shape(self):
        return f"{self.n_assets} assets x {self.n_days} days"

    def make_inputs(self, dest):
        self.panel = generate(SynthSpec(n_assets=self.n_assets, n_days=self.n_days, seed=self.seed))

    def call(self, threads):
        return pipeline.run(self.panel, threads=threads).metrics

    def check(self, results, ck):
        rows = results[0]
        ck.check(len(rows) == self.rows_per_call, f"{len(rows)} rows, expected {self.rows_per_call}")
        for other in results[1:]:
            ck.check(other == rows, "repeated run() gave different rows")
        by_date = {r.end_date: row_dict(r) for r in rows}
        rng = _rng(self.seed, 2)
        # one date: each costs two 200-asset distance matrices
        spot_check(self.panel, int(rng.integers(W, self.n_days)), by_date, rng, ck)


def forward_fill(values: np.ndarray) -> np.ndarray:
    """Reference forward fill: each NaN takes the previous row's value."""
    out = values.copy()
    for r in range(1, out.shape[0]):
        gap = np.isnan(out[r])
        out[r, gap] = out[r - 1, gap]
    return out


def _csv_rows(text: str) -> dict[date, dict]:
    lines = text.splitlines()
    out = {}
    for line in lines[1:]:
        f = line.split(",")
        ints = [int(x) if x else None for x in f[2:]]
        out[date.fromisoformat(f[0])] = dict(
            zip(
                ("gbe", "n_components", "n_cooc_edges", "n_red_edges", "n_blue_edges",
                 "n_farther_hubs", "n_closer_hubs"),
                [float(f[1])] + ints,
            )
        )
    return out


@dataclass
class CliOutput:
    """What the benchmark keeps of one CLI call's output directory."""

    code: int
    stdout: str
    files: int
    stale: int  # files the call did not rewrite
    bytes: int
    digest: str  # over every file's relative path and bytes, in sorted order
    texts: dict[str, str]  # metrics.csv and the spot-checked dates' JSON snapshots


class HistoryCli(Workload):
    """20 assets x one trading year with a seeded shock and ~2% holiday-shaped
    blank cells, written as CSV + JSON; one `cli.main(["run", ...])`
    exporting every snapshot in both formats plus charts. A year rather than
    a longer history keeps a call under a second, so that a run holds ~30
    calls and its fastest call is one no other tenant slowed.

    Every call writes to the same output directory, which the warm-up call
    creates: a timed call rewrites the export of the one before, as a
    scheduled rerun of a report does. Creating 10k small files afresh took
    from 0.3 to 5 s of kernel time on the ext4 disk of a 2-core VM, a spread
    that would bury the program's own time."""

    name = "history_cli"
    threads = 1  # the CLI default; the call passes no --threads
    pairs_per_day = 2

    def __init__(self, seed, work_dir, n_assets=20, n_days=252, shock_days=20):
        super().__init__(seed, work_dir)
        self.n_assets, self.n_days, self.shock_days = n_assets, n_days, shock_days
        self.rows_per_call = n_days - W + 1
        self.spot_rng = _rng(seed, 2)
        self.spot_days = sorted(int(t) for t in self.spot_rng.choice(np.arange(W, n_days), SPOT_DAYS, replace=False))
        self.out_dir = self.work_dir / "out"

    def shape(self):
        return f"{self.n_assets} assets x {self.n_days} days, ~2% blank cells"

    def make_inputs(self, dest):
        rng = _rng(self.seed, 1)
        start = int(rng.integers(self.n_days // 4, self.n_days * 3 // 4 - self.shock_days))
        shock = Shock(start, start + self.shock_days - 1, factor_loading=0.95)
        spec = SynthSpec(n_assets=self.n_assets, n_days=self.n_days, seed=self.seed, shocks=[shock])
        full = generate(spec)
        # Holidays close one market (every third asset) for a day, sometimes two.
        values = np.array(full.values)
        for market in range(3):
            starts = rng.choice(np.arange(1, self.n_days - 1), size=round(0.016 * self.n_days), replace=False)
            for s in starts:
                span = 2 if rng.random() < 0.25 else 1
                values[s : s + span, market::3] = np.nan
        self.raw = values
        self.panel = PricePanel(dates=full.dates, assets=full.assets, values=values)
        self.csv_path, self.meta_path = write_panel(self.panel, dest)

    def warm_up(self, ck):
        out = self.collect(self.call(self.threads))
        ck.check(out.code == 0 and out.stale == 0, f"warm-up cli call: exit code {out.code}, {out.stale} stale files")

    def call(self, threads):
        argv = [
            "run", "--input", str(self.csv_path), "--meta", str(self.meta_path), "--out", str(self.out_dir),
            "--snapshots", "all", "--graph-format", "both", "--charts",
        ]
        started_ns = time.time_ns()
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), started_ns

    def collect(self, result):
        # A file is stale when its mtime is older than the call's start. The
        # call writes its files only after its whole pipeline run, hundreds
        # of milliseconds after it starts, so the file clock's coarse tick
        # (a few milliseconds) cannot blur the two.
        code, stdout, started_ns = result
        out_dir = self.out_dir
        keep = {"metrics.csv"} | {
            f"networks/{self.panel.dates[t].isoformat()}.{kind}.json" for t in self.spot_days for kind in ("cooc", "diff")
        }
        digest = hashlib.sha256()
        texts, files, stale, size = {}, 0, 0, 0
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                rel = p.relative_to(out_dir).as_posix()
                data = p.read_bytes()
                digest.update(rel.encode() + b"\0" + data + b"\0")
                files += 1
                stale += p.stat().st_mtime_ns < started_ns
                size += len(data)
                if rel in keep:
                    texts[rel] = data.decode("utf-8")
        return CliOutput(code, stdout, files, stale, size, digest.hexdigest(), texts)

    def check(self, results, ck):
        n_rows = self.rows_per_call
        for out in results:
            ck.check(out.code == 0, f"cli exit code {out.code}")
            ck.check(out.stale == 0, f"{out.stale} files were not rewritten")
            ck.check(out.stdout.startswith(f"analyzed {n_rows} dates"), f"summary line {out.stdout.strip()!r}")
            lines = out.texts["metrics.csv"].splitlines()
            ck.check(lines[0] == ",".join(cli.METRICS_COLUMNS), "metrics.csv header")
            ck.check(len(lines) == n_rows + 1, f"metrics.csv has {len(lines) - 1} rows, expected {n_rows}")
            # cooc + diff snapshots in two formats per date (no diff on the
            # first date), plus metrics.csv and two charts
            ck.check(out.files == 4 * n_rows + 1, f"{out.files} files written, expected {4 * n_rows + 1}")
        for other in results[1:]:
            ck.check(other.digest == results[0].digest, "repeated cli run gave different output files")

        filled = PricePanel(dates=self.panel.dates, assets=self.panel.assets, values=forward_fill(self.raw))
        by_date = _csv_rows(results[0].texts["metrics.csv"])
        ids = filled.asset_ids
        iu, ju = np.triu_indices(len(ids), k=1)
        pairs = list(zip(iu.tolist(), ju.tolist()))

        def edges(mask, color=None):
            out = []
            for i, j in pairs:
                if mask[i, j]:
                    a, b = sorted((ids[i], ids[j]))
                    out.append((a, b, color) if color else (a, b))
            return sorted(out)

        for t in self.spot_days:
            dm, prev = spot_check(filled, t, by_date, self.spot_rng, ck)
            day = filled.dates[t].isoformat()
            cooc = json.loads(results[0].texts[f"networks/{day}.cooc.json"])
            ck.check(
                sorted((e["a"], e["b"]) for e in cooc["edges"]) == edges(dm.d < CONFIG.cooc_threshold),
                f"{day}.cooc.json edges differ from the reference",
            )
            diff = json.loads(results[0].texts[f"networks/{day}.diff.json"])
            delta = dm.d - prev
            want = edges(delta > CONFIG.diff_threshold, "red") + edges(delta < -CONFIG.diff_threshold, "blue")
            ck.check(
                sorted((e["a"], e["b"], e["color"]) for e in diff["edges"]) == sorted(want),
                f"{day}.diff.json edges differ from the reference",
            )

    def written(self, result):
        return result.files, result.bytes


WORKLOADS = {w.name: w for w in (BackfillWide, HistoryCli)}
