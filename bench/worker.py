"""Runs one workload in this process and prints its measurements as JSON.

run.py starts this file as a child process, so the child's memory
high-water mark is the workload's own.  Usage:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Traced runs measure a fixed number of rounds, so their counts repeat exactly.
TRACE_ROUNDS = {"audit": 5, "query": 10, "table": 3, "koszul": 10}
# Latency is taken per window of whole rounds.  Query and koszul windows hold
# over 1000 ops, so a window's p99 has ten samples beyond it; an audit or
# table round is a handful of ops and about a second of work, so each round
# is a window.
WINDOW_ROUNDS = {"audit": 1, "query": 20, "table": 1, "koszul": 22}
# The host is shared: the same work runs up to 1.6x slower, CPU time
# included, for stretches of seconds that cover a different share of each
# run.  Each timing is therefore taken per round (throughput) or per window
# (latency), and the run reports the fastest tenth of them, as timeit
# reports its best repeat.
FAST_SHARE = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 samples p99 is the maximum."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


class Tally:
    """Latency, work and failures of the ops run so far, by round."""

    def __init__(self):
        self.latencies: list[list[float]] = []  # per round, per op
        self.round_rates: list[float] = []  # items per second of busy time
        self.items = 0
        self.busy = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.audit_degrees = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))

    def run_round(self, ops, digest=None) -> list[bool]:
        """Run ops in order, one at a time; returns which of them failed."""
        failed, latencies = [], []
        items, busy = self.items, self.busy
        for op in ops:
            start = perf_counter()
            try:
                result = op.call()
                elapsed = perf_counter() - start
            except Exception:
                elapsed = perf_counter() - start
                problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
                text = ""
            else:
                try:
                    problem = op.check(result)
                    text = op.text(result)
                except Exception as e:
                    problem, text = f"check raised {e!r}", ""
            latencies.append(elapsed)
            self.items += op.items
            self.busy += elapsed
            self.audit_degrees += op.degrees
            if digest is not None:
                digest.update(text.encode())
                digest.update(b"\0")
            if problem:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.kind}: {problem}")
            failed.append(bool(problem))
        self.latencies.append(latencies)
        self.round_rates.append((self.items - items) / (self.busy - busy))
        return failed

    def timings(self, window_rounds: int) -> dict[str, float]:
        """Throughput and op latency of the least contended tenth of the run."""
        windows = [sum(self.latencies[k:k + window_rounds], [])
                   for k in range(0, len(self.latencies), window_rounds)]
        if len(windows) > 1 and len(windows[-1]) < len(windows[0]):
            partial = windows.pop()
            windows[-1] += partial  # a partial last window joins the one before
        return {
            "items_per_s": percentile(self.round_rates, 100 - FAST_SHARE),
            "op_p50_ms": percentile([percentile(w, 50) for w in windows], FAST_SHARE) * 1e3,
            "op_p99_ms": percentile([percentile(w, 99) for w in windows], FAST_SHARE) * 1e3,
        }


def first_round(tally: Tally, make_ops, workload: str, seed: int) -> dict:
    """Round 0, whose stdout digest is compared with the pinned one."""
    digest = hashlib.sha256()
    failed = tally.run_round(make_ops(seed, 0), digest)
    pins = json.loads(DIGESTS.read_text()).get(workload, {})
    got, want = digest.hexdigest(), pins.get(str(seed))
    if want is not None and got != want:
        # Which op changed its bytes is unknown, so every op of the round fails.
        tally.failed += failed.count(False)
        tally.problems.append(f"round 0 stdout digest {got} differs from pinned {want}")
    return {"digest": got, "pinned": want is not None}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: whole rounds until `seconds` have passed."""
    make_ops = WORKLOADS[workload]
    tally = Tally()
    start = perf_counter()
    doc = first_round(tally, make_ops, workload, seed)
    rnd = 1
    while perf_counter() - start < seconds:
        tally.run_round(make_ops(seed, rnd))
        rnd += 1
    doc.update(tally.timings(WINDOW_ROUNDS[workload]))
    doc.update(rounds=rnd, attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    return doc


def trace(workload: str, seed: int, spans: str | None) -> dict:
    """Alternate untraced and traced rounds, so both see the same cache state."""
    make_ops = WORKLOADS[workload]
    warm, plain, traced, tracer = Tally(), Tally(), Tally(), Tracer()
    doc = first_round(warm, make_ops, workload, seed)
    for k in range(TRACE_ROUNDS[workload]):
        plain.run_round(make_ops(seed, 2 * k + 1))
        ops = make_ops(seed, 2 * k + 2)
        with tracer:
            traced.run_round(ops)
    if spans:
        Path(spans).write_text(json.dumps(tracer.spans_doc()))
    layers = tracer.metrics(traced.audit_degrees)
    # Overhead: the share of untraced throughput lost, over as many rounds.
    layers["trace_overhead"] = (
        1 - (traced.items / traced.busy) / (plain.items / plain.busy), "ratio")
    tallies = (warm, plain, traced)
    doc.update(layers=layers, attempted=sum(t.attempted for t in tallies),
               failed=sum(t.failed for t in tallies),
               problems=sum((t.problems for t in tallies), []))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    if args.trace:
        doc = trace(args.workload, args.seed, args.spans)
    else:
        doc = measure(args.workload, args.seed, args.seconds)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
