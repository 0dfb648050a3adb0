#!/usr/bin/env python3
"""Cross-tabulate splitting-criterion hypotheses against conclusions.

Each audit enumerates every decomposable bundle with summand degrees in
[-bound, bound]^s and rank <= max_rank, evaluates the criterion's
vanishing hypothesis and its split-form conclusion on each bundle, and
prints the 2x2 contingency table.  On the shapes and caps audited here
the excess-2 and capped criteria are biconditionals, so any off-diagonal
entry is a failure and the script exits nonzero.  (They are not on every
shape: see the open discrepancy in the README's audit section.)

The balanced-power criterion is biconditional on two factors only.  On
three factors its vanishing conditions lose force (for n = 1 every
intermediate index is a multiple of n, so the off-diagonal checks are
vacuous, and the diagonal check cannot separate a large gap spread over
several factors), and bundles whose coordinate gap exceeds n pass every
condition.  The three-factor probes list each such bundle verbatim; the
forward direction still holds, so a nonzero concl_only cell is treated
as a failure even there.
"""

import argparse
import sys
import time

from multicoh import desk_scale_audit

# (criterion, shape, bound, max_rank, r); biconditional expected.
CLEAN_QUICK = [
    ("thm12", (2, 2), 2, 1, None),
    ("thm12", (2, 2, 2), 2, 1, None),
    ("thm13", (2, 2), 2, 1, (1, 1)),
    ("lemma14", (1, 1), 2, 2, None),
    ("lemma14", (2, 2), 2, 1, None),
]

CLEAN_FULL = CLEAN_QUICK + [
    ("thm12", (2, 2), 2, 2, None),
    ("thm12", (2, 2), 3, 2, None),
    ("thm12", (2, 3), 2, 2, None),
    ("thm12", (2, 2, 2), 1, 2, None),
    ("thm13", (2, 2), 2, 2, (1, 1)),
    ("thm13", (2, 3), 2, 1, (1, 2)),
    ("thm13", (2, 2, 2), 1, 1, (1, 1, 1)),
    ("lemma14", (1, 1), 3, 2, None),
    ("lemma14", (2, 2), 4, 2, None),
] + [("thm13", (2, 2), 2, 1, (r1, r2)) for r1 in range(3) for r2 in range(3)]

# lemma14 beyond two factors; hyp_only mismatches are findings, not bugs.
PROBE_QUICK = [
    ("lemma14", (1, 1, 1), 1, 1, None),
]

PROBE_FULL = PROBE_QUICK + [
    ("lemma14", (1, 1, 1), 2, 1, None),
    ("lemma14", (1, 1, 1), 1, 2, None),
    ("lemma14", (2, 2, 2), 2, 1, None),
]


def run_audit(task):
    criterion, shape, bound, max_rank, r = task
    t0 = time.perf_counter()
    report = desk_scale_audit(shape, bound, max_rank, criterion, r=r)
    elapsed = time.perf_counter() - t0
    label = f"{criterion} on {shape}, degrees in [-{bound}..{bound}], rank <= {max_rank}"
    if r is not None:
        label += f", r={r}"
    print(f"{label}: {report.total} bundles in {elapsed:.1f}s")
    print("                     split   no-split")
    print(f"    vanishing   {report.both:10d} {report.hyp_only:10d}")
    print(f"    no vanishing{report.concl_only:10d} {report.neither:10d}")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="small boxes only (default)")
    mode.add_argument("--full", action="store_true", help="larger boxes and the thm13 cap grid")
    args = parser.parse_args(argv)

    clean_tasks = CLEAN_FULL if args.full else CLEAN_QUICK
    probe_tasks = PROBE_FULL if args.full else PROBE_QUICK
    failures = 0
    t_start = time.perf_counter()

    print("== biconditional audits (off-diagonals must be empty) ==\n")
    for task in clean_tasks:
        report = run_audit(task)
        if report.clean:
            print("    -> clean\n")
        else:
            failures += 1
            print(f"    -> FAILURE: {report.hyp_only} hyp_only, {report.concl_only} concl_only")
            for E, hyp, concl in report.mismatches[:10]:
                print(f"       {E}  hypothesis={hyp}  conclusion={concl}")
            print()

    print("== three-factor probes (hyp_only rows are expected findings) ==\n")
    for task in probe_tasks:
        report = run_audit(task)
        if report.concl_only:
            failures += 1
            print(f"    -> FAILURE: {report.concl_only} bundles match the split form "
                  "yet violate a vanishing condition")
        if report.hyp_only:
            print(f"    -> {report.hyp_only} bundles pass every vanishing condition "
                  "but exceed the gap bound:")
            shown = [E for E, hyp, concl in report.mismatches if hyp and not concl]
            for E in shown[:12]:
                print(f"       {E}")
            if len(shown) > 12:
                print(f"       ... and {len(shown) - 12} more")
        else:
            print("    -> no mismatches at this box size")
        print()

    elapsed = time.perf_counter() - t_start
    total_audits = len(clean_tasks) + len(probe_tasks)
    print(f"{total_audits} audits in {elapsed:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
