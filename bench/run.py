"""The multicoh benchmark: one workload, one seed, every metric with its unit.

    python3 bench/run.py --workload audit|query|table|koszul --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it imports multicoh from src/).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a traced run.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the same
result, with a record of the machine, goes to bench/out/.  See
bench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("audit", "query", "table", "koszul")
SETUP_RUNS = 16
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import multicoh.cli as c; c.build_parser()"
WORKER_TIMEOUT_S = 150
# Children run with a fixed hash seed so that dict and set layouts, and
# with them the timings, do not vary from run to run.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def setup_seconds(runs: int) -> list[float]:
    """Wall times of fresh interpreters that import multicoh.cli and build its parser."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=CHILD_ENV, check=True)
        times.append(perf_counter() - start)
    return times


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def end_to_end(raw: dict, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (raw["items_per_s"], "1/s"),
        "op_p50_ms": (raw["op_p50_ms"], "ms"),
        "op_p99_ms": (raw["op_p99_ms"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multicoh" / "__init__.py").is_file():
        print(f"error: no multicoh sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Half the set-up launches go before the workload and half after, so a
    # slow stretch of the shared host moves fewer of them.
    setup = [] if args.trace else setup_seconds(SETUP_RUNS // 2 + 1)[1:]
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{stem}-spans.json")]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                               timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(child.stderr, end="", file=sys.stderr)
        print(f"error: workload exited with {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.splitlines()[-1])
    if not args.trace:
        setup += setup_seconds(SETUP_RUNS // 2)

    metrics = ({k: tuple(v) for k, v in raw["layers"].items()} if args.trace
               else end_to_end(raw, setup))
    error_rate = raw["failed"] / raw["attempted"]
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "error_rate": error_rate,
        "rounds": raw.get("rounds"), "setup_runs_s": setup,
        "stdout_digest": raw["digest"], "digest_pinned": raw["pinned"],
        "problems": raw["problems"], **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in raw["problems"]:
        print("FAILED", problem)
    print(f"workload {args.workload} seed {args.seed}: {raw['attempted']} ops, "
          f"error_rate {error_rate:.4g}, "
          f"stdout digest {raw['digest'][:16]} ({'pinned' if raw['pinned'] else 'not pinned'})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
