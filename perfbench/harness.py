"""Measured and traced passes over one workload, and the metrics they yield.

Both passes start with the workload's warm-up. A measured pass (trace 0)
then repeats the workload's timed call, untraced, at the workload's worker
count for the run length and reports the end-to-end metrics. A traced pass
(trace 1) reports the per-layer metrics. It makes the call untraced at the
workload's worker count and traced on one thread; the layer times come from
the one-thread call, so that layer self times add up to its wall time. When
the worker count is above 1 it also makes the call untraced on one thread
and traced at the worker count; the pool's figures come from that call.
"""

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Checker, scalar_sample
from spans import LAYERS, Tracer, dump
from workloads import nproc

SETUP_REPEATS = 7
MIN_CALLS = 3  # calls in a measured run, at least

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import market_rewire, market_rewire.cli; "
    "print(time.perf_counter() - t)"
)


def child_import_seconds(src: Path) -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(wl, src: Path) -> float:
    """Build the inputs SETUP_REPEATS times; the last build is kept. Returns
    the median of (input build + package import) over the repeats."""
    times = []
    for r in range(SETUP_REPEATS):
        dest = wl.work_dir / f"inputs-{r}"
        t0 = perf_counter()
        wl.make_inputs(dest)
        build = perf_counter() - t0
        times.append(build + child_import_seconds(src))
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(dest, ignore_errors=True)
    return statistics.median(times)


def environment(wl) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "workers": wl.threads,
        "seed": wl.seed,
        "workload": wl.name,
        "shape": wl.shape(),
    }


def _fill_count(args, kwargs, panel):
    policy = args[1] if len(args) > 1 else kwargs.get("policy", "forward_fill")
    return int(np.isnan(args[0].values).sum()) if policy == "forward_fill" else 0


# Counts taken at span boundaries in the traced pass (see spans.Tracer).
COUNTERS = {
    "ingest.load_panel": lambda args, kwargs, panel: os.path.getsize(args[0]) + os.path.getsize(args[1]),
    "ingest.fill_missing": _fill_count,
    "preprocess.windows_at": lambda args, kwargs, wins: (len(wins), sum(not w.values.any() for w in wins)),
    # the day's windows and distances, for the scalar-DTW check after the pass
    "dtw.distance_matrix": lambda args, kwargs, dm: (np.stack([w.values for w in args[0]]), dm.d, dm.end_date),
    "networks.cooccurrence_network": lambda args, kwargs, g: len(g.edges),
    "networks.differential_network": lambda args, kwargs, g: len(g.red_edges) + len(g.blue_edges),
}


def _timed(wl, threads: int):
    t0 = perf_counter()
    result = wl.call(threads)
    elapsed = perf_counter() - t0
    return elapsed, wl.collect(result)


def measure(wl, seconds: float, setup_s: float, ck: Checker) -> tuple[dict, dict]:
    """Untraced calls for `seconds`, at least MIN_CALLS; end-to-end metrics.

    `days_per_s` is taken from the fastest call. On a shared 2-core VM a
    call's latency has a fast mode and a mode up to 1.8x slower while other
    tenants contend for the core, and in some 30 s windows most calls fall in
    the slow one, so the median of a run moved by up to 25% between runs while
    the fastest call moved by under 5%. The median and every latency are
    printed with the run's environment."""
    wl.warm_up(ck)
    lat, results = [], []
    start = perf_counter()
    # start no call that the last call's latency says would end after `seconds`
    while len(lat) < MIN_CALLS or perf_counter() - start + lat[-1] <= seconds:
        t, result = _timed(wl, wl.threads)
        lat.append(t)
        results.append(result)
    # read before the checks, whose reference matrices would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ck.attempted += len(results)
    wl.check(results, ck)
    metrics = {
        "days_per_s": wl.rows_per_call / min(lat),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return metrics, {
        "samples": len(lat),
        "latency_median_s": statistics.median(lat),
        "latencies_s": [round(t, 4) for t in lat],
    }


def trace(wl, ck: Checker, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced calls, checked against untraced ones."""
    wl.warm_up(ck)
    untraced_s, untraced = _timed(wl, wl.threads)
    tracers = [Tracer(COUNTERS, pass_id=0)]
    if wl.threads == 1:
        serial_s, serial = untraced_s, untraced
    else:
        serial_s, serial = _timed(wl, 1)
        ck.check(untraced == serial, f"threads=1 and threads={wl.threads} outputs differ")
        tracers.append(Tracer(pass_id=1))
        with tracers[1].installed():
            parallel = wl.collect(wl.call(wl.threads))
        ck.check(parallel == untraced, f"traced and untraced outputs differ at threads={wl.threads}")
    tracer = tracers[0]
    with tracer.installed():
        traced = wl.call(1)
    traced = wl.collect(traced)
    ck.attempted += 2 * len(tracers)  # the calls made
    ck.check(traced == serial, "traced and untraced outputs differ")
    wl.check([untraced], ck)
    rng = np.random.default_rng([wl.seed, 3])
    for values, d, day in tracer.counts["dtw.distance_matrix"]:
        scalar_sample(values, d, day, wl.pairs_per_day, rng, ck)

    metrics = layer_metrics(tracer, wl, untraced_s, serial_s, traced)
    metrics.update(pool_metrics(tracers[1] if len(tracers) > 1 else None))
    dump(spans_path, {"environment": environment(wl)}, tracers)
    return metrics, {"samples": 1, "spans": sum(len(t.spans) for t in tracers)}


def pool_metrics(pool: Tracer | None) -> dict:
    """The worker threads that ran a pool task, and the share of their time
    in the pools' lifetimes they spent idle. Without a pool the call runs on
    its caller's thread: one worker, never idle."""
    tasks = [s for s in pool.spans if s.name == "pipeline.task"] if pool else []
    if not tasks:
        return {"pipeline.workers": 1, "pipeline.pool_idle_frac": 0.0}
    workers = len({s.thread for s in tasks})
    lifetime = sum(s.duration for s in pool.spans if s.name == "pipeline.pool")
    busy = sum(s.duration for s in tasks)
    return {"pipeline.workers": workers, "pipeline.pool_idle_frac": 1 - busy / (workers * lifetime)}


def layer_metrics(tracer: Tracer, wl, untraced_s: float, serial_s: float, first_result) -> dict:
    st = tracer.self_times()
    inc = tracer.inclusive_times()
    wall = tracer.wall()
    counts = tracer.counts

    def self_s(*names):
        return sum(st.get(n, 0.0) for n in names)

    layer_self = {layer: self_s(*(f"{layer}.{fn}" for fn in fns)) for layer, fns in LAYERS.items()}
    windows = counts["preprocess.windows_at"]
    pairs = cells = batch_bytes = 0
    for values, _, _ in counts["dtw.distance_matrix"]:
        n, w = values.shape
        k = n * (n - 1) // 2
        pairs += k
        cells += k * w * w
        # float64 cost and table tensors of one day's batch
        batch_bytes = max(batch_bytes, 2 * 8 * k * w * w)
    files, written = wl.written(first_result)

    return {
        "ingest.load_panel_s": st.get("ingest.load_panel", 0.0),
        "ingest.fill_missing_s": st.get("ingest.fill_missing", 0.0),
        "ingest.cells_filled": sum(counts["ingest.fill_missing"]),
        "ingest.bytes_read": sum(counts["ingest.load_panel"]),
        "ingest.share": layer_self["ingest"] / wall,
        "preprocess.windows_at_s": st.get("preprocess.windows_at", 0.0),
        "preprocess.windows": sum(n for n, _ in windows),
        "preprocess.constant_windows": sum(c for _, c in windows),
        "preprocess.share": layer_self["preprocess"] / wall,
        "dtw.distance_matrix_s": layer_self["dtw"],
        "dtw.pairs": pairs,
        "dtw.cells": cells,
        "dtw.ns_per_cell": layer_self["dtw"] * 1e9 / cells if cells else 0.0,
        "dtw.batch_bytes_computed": batch_bytes,
        "dtw.share": layer_self["dtw"] / wall,
        "networks.cooccurrence_s": st.get("networks.cooccurrence_network", 0.0),
        "networks.components_s": st.get("networks.connected_components", 0.0),
        "networks.entropy_s": st.get("networks.graph_based_entropy", 0.0),
        "networks.differential_s": self_s("networks.difference_matrix", "networks.differential_network"),
        "networks.hubs_s": st.get("networks.count_hubs", 0.0),
        "networks.cooc_edges": sum(counts["networks.cooccurrence_network"]),
        "networks.diff_edges": sum(counts["networks.differential_network"]),
        "networks.share": layer_self["networks"] / wall,
        "pipeline.run_s": inc.get("pipeline.run", 0.0),
        "pipeline.parallel_speedup": serial_s / untraced_s,
        "pipeline.unattributed_s": layer_self["pipeline"],
        "pipeline.share": layer_self["pipeline"] / wall,
        "cli.main_s": inc.get("cli.main", 0.0),
        "cli.metrics_csv_s": st.get("cli.metrics_csv_text", 0.0),
        "cli.snapshots_s": self_s("cli.export_graph", "cli.write_export_bundle"),
        "cli.charts_s": st.get("cli.write_charts", 0.0),
        "cli.files_written": files,
        "cli.bytes_written": written,
        "cli.share": layer_self["cli"] / wall,
        "trace.overhead_frac": (wall - serial_s) / serial_s,
    }
