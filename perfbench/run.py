"""Benchmark for market-rewire. Run from the root of a checkout:

    python3 perfbench/run.py --workload backfill_wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, each in its own process

The package is imported from this checkout's src/. With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. It prints each metric with its unit, an environment
line, and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when a correctness check
or call fails, and 2 when the package or BENCHMARK.json cannot be loaded.
Spans of a traced run are written to .bench_out/.
"""

import os

# Pin native thread pools before numpy loads; the pipeline's own worker
# count comes from the workload, never from the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MARKET_REWIRE_THREADS", None)

import argparse
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        sys.exit(2)


def import_package() -> None:
    """Import market_rewire from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import market_rewire
    except ImportError as e:
        print(f"perfbench: cannot import market_rewire from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not Path(market_rewire.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: market_rewire was imported from {market_rewire.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def run_one(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> int:
    import_package()
    from checks import Checker
    from harness import environment, measure, set_up, trace
    from workloads import WORKLOADS

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    work = OUT / f"work-{os.getpid()}"
    ck = Checker()
    metrics, info = {}, {}
    try:
        wl = WORKLOADS[workload](seed, work)
        if traced:
            wl.make_inputs(work / "inputs")
            metrics, info = trace(wl, ck, OUT / f"spans-{workload}-seed{seed}.json")
        else:
            metrics, info = measure(wl, seconds, set_up(wl, SRC), ck)
        print(json.dumps({"environment": environment(wl), **info}))
    except Exception:
        traceback.print_exc()
        ck.attempted += 1
        ck.failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for m in declared:
        if m["name"] in metrics:
            print(f"{workload:14s} {m['name']:28s} {metrics[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": ck.failed == 0,
        "attempted": max(ck.attempted, 1),
        "failed": ck.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if ck.failed == 0 else 1


def run_all(spec: dict, seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    failed = 0
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            failed += 1
            print(f"{w['name']}: exit code {proc.returncode}", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
