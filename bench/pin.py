"""Pin the round-0 stdout digest of every workload for seeds 0 .. N-1.

    python3 bench/pin.py [N]

Run it only at a commit whose output is known to be right: the benchmark
then fails any later commit whose stdout differs for a pinned seed.  It
refuses to pin a seed whose round 0 fails its checks.
"""

import hashlib
import json
import sys

from worker import DIGESTS, Tally
from workloads import WORKLOADS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = range(int(argv[0]) if argv else 64)
    pins = {}
    for workload, make_ops in WORKLOADS.items():
        pins[workload] = {}
        for seed in seeds:
            tally, digest = Tally(), hashlib.sha256()
            tally.run_round(make_ops(seed, 0), digest)
            if tally.failed:
                print(f"{workload} seed {seed} fails: {tally.problems}", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = digest.hexdigest()
        print(f"{workload}: pinned seeds {seeds.start}..{seeds.stop - 1}", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
