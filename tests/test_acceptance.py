"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite progresses.  Every check recomputes its expected side from an
independent route (explicit monomial recursion, duality, direct scans,
or exhaustive enumeration); nothing is compared against an output of the
code path under test.
"""

import itertools
import random
import time

import pytest

from multicoh import (
    Shape,
    desk_scale_audit,
    dualizing_degree,
    euler_exactness_check,
    exceptional_tuples,
    is_acm,
    is_zero_regular,
    koszul_factor_complex,
    kunneth_dim,
    line_bundle,
    nonvanishing_twist_intervals,
    proposition_iso_dims,
    regularity_index,
    serre_dual,
    sum_cohomology_dim,
    thm12_violations,
    thm13_conclusion_match,
    thm13_violations,
)


def _report(num: int, title: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {title}: {detail}")
    return ok


def test_criterion_01_kunneth_vs_monomial_oracle():
    from support import all_shapes, h0_oracle

    start = time.perf_counter()
    checks = 0
    bad = []
    for dims in all_shapes(5):
        s = len(dims)
        for a in itertools.product(range(-5, 6), repeat=s):
            want = h0_oracle(dims, a)
            got = kunneth_dim(dims, a, 0)
            checks += 1
            if got != want:
                bad.append((dims, a, got, want))
    dt = time.perf_counter() - start
    ok = not bad and dt < 60.0
    assert _report(
        1,
        "sections match the monomial-count oracle",
        ok,
        f"{checks} checks over {len(all_shapes(5))} shapes, "
        f"{len(bad)} discrepancies, {dt:.1f}s (budget 60s)",
    ), bad[:5]


def test_criterion_02_serre_duality_identity():
    shape = (2, 2)
    omega = dualizing_degree(shape)
    total = 4
    checks = 0
    bad = []
    for a in itertools.product(range(-6, 7), repeat=2):
        E = line_bundle(shape, a)
        D = serre_dual(E)
        for t in range(total + 1):
            lhs = sum_cohomology_dim(E, (0, 0), t)
            rhs = sum_cohomology_dim(D, omega, total - t)
            checks += 1
            if lhs != rhs:
                bad.append((a, t, lhs, rhs))
    E = (
        line_bundle(shape, (2, -1))
        + line_bundle(shape, (0, 3))
        + line_bundle(shape, (0, 3))
    )
    D = serre_dual(E)
    for d in itertools.product(range(-6, 7), repeat=2):
        dual_d = tuple(w - x for x, w in zip(d, omega))
        for t in range(total + 1):
            lhs = sum_cohomology_dim(E, d, t)
            rhs = sum_cohomology_dim(D, dual_d, total - t)
            checks += 1
            if lhs != rhs:
                bad.append((d, t, lhs, rhs))
    assert _report(
        2,
        "duality dimension identity on the [2,2] box",
        not bad,
        f"{checks} identities, {len(bad)} discrepancies",
    ), bad[:5]


def test_criterion_03_regularity_closed_form():
    checks = 0
    bad = []
    for dims in [(1, 2), (2, 2), (1, 1, 1)]:
        for a in itertools.product(range(-4, 5), repeat=len(dims)):
            got = is_zero_regular(line_bundle(dims, a)).regular
            want = min(a) >= 0
            checks += 1
            if got != want:
                bad.append((dims, a, got, want))
        reg = regularity_index(line_bundle(dims, (0,) * len(dims)))
        checks += 1
        if reg != 0:
            bad.append((dims, "Reg(O)", reg, 0))
    assert _report(
        3,
        "0-regularity of O(a) is min(a) >= 0, Reg(O) = 0",
        not bad,
        f"{checks} checks on shapes [1,2], [2,2], [1,1,1], {len(bad)} discrepancies",
    ), bad[:5]


def test_criterion_04_acm_closed_form():
    from multicoh import acm_closed_form

    checks = 0
    bad = []
    for dims in [(1, 2), (2, 2), (2, 3), (1, 1, 2)]:
        shape = Shape(dims)
        for a in itertools.product(range(-4, 5), repeat=len(dims)):
            got = acm_closed_form(a, shape)
            want = is_acm(line_bundle(dims, a))[0]
            checks += 1
            if got != want:
                bad.append((dims, a, got, want))
    assert _report(
        4,
        "dead-band coverage closed form decides aCM",
        not bad,
        f"{checks} bundles over four shapes, {len(bad)} discrepancies",
    ), bad[:5]


@pytest.mark.slow
def test_criterion_05_koszul_exactness_sweep():
    from support import all_shapes

    start = time.perf_counter()
    checks = 0
    bad = []
    for dims in all_shapes(6):
        s = len(dims)
        zero = (0,) * s
        for axis in range(s):
            C = koszul_factor_complex(dims, axis, zero)
            for w in itertools.product(range(-6, 7), repeat=s):
                checks += 1
                if not euler_exactness_check(C, w):
                    bad.append((dims, axis, w))
        for pair in proposition_iso_dims(dims):
            checks += 1
            if pair != (1, 1):
                bad.append((dims, "iso", pair))
    dt = time.perf_counter() - start
    assert _report(
        5,
        "every factor complex is Euler-exact at every twist",
        not bad,
        f"{checks} checks over {len(all_shapes(6))} shapes, "
        f"{len(bad)} failures, {dt:.0f}s",
    ), bad[:5]


def test_criterion_06_two_factor_anchor_audit():
    start = time.perf_counter()
    report = desk_scale_audit((2, 2), 2, 2, "thm12")
    exceptional = exceptional_tuples(Shape((2, 2)), (2, 2))
    want_exceptional = frozenset(
        {(2, (-2, 0)), (2, (-1, 0)), (2, (0, -2)), (2, (0, -1))}
    )
    dt = time.perf_counter() - start
    ok = (
        report.clean
        and report.total == 350
        and exceptional == want_exceptional
        and dt < 300.0
    )
    assert _report(
        6,
        "excess-2 audit on [2,2] and the four exempt tuples",
        ok,
        f"total={report.total} both={report.both} hyp_only={report.hyp_only} "
        f"concl_only={report.concl_only} neither={report.neither}, "
        f"exceptional set {'matches' if exceptional == want_exceptional else 'differs'}, "
        f"{dt:.1f}s (budget 300s)",
    )


def test_criterion_07_capped_audits_and_monotonicity():
    caps_grid = list(itertools.product(range(3), repeat=2))
    reports = {}
    bad = []
    for r in caps_grid:
        rep = desk_scale_audit((2, 2), 2, 1, "thm13", r=r)
        reports[r] = rep
        if not rep.clean:
            bad.append((r, rep.hyp_only, rep.concl_only))
    degrees = list(itertools.product(range(-2, 3), repeat=2))
    bundles = [line_bundle((2, 2), a) for a in degrees]
    state = {
        r: [
            (
                thm13_violations(E, r).empty,
                thm13_conclusion_match(E, r).matched,
                frozenset(thm13_violations(E, r).rows),
            )
            for E in bundles
        ]
        for r in caps_grid
    }
    mono_checks = 0
    for r in caps_grid:
        for q in caps_grid:
            if not all(x <= y for x, y in zip(r, q)):
                continue
            for (hyp_r, concl_r, rows_r), (hyp_q, concl_q, rows_q) in zip(
                state[r], state[q]
            ):
                mono_checks += 1
                if concl_r and not concl_q:
                    bad.append(("concl not monotone", r, q))
                if not rows_q <= rows_r:
                    bad.append(("violations not shrinking", r, q))
                if hyp_r and not hyp_q:
                    bad.append(("hyp not monotone", r, q))
    assert _report(
        7,
        "all nine capped audits clean, caps act monotonically",
        not bad,
        f"9 audits of 25 bundles each, {mono_checks} monotonicity "
        f"comparisons, {len(bad)} failures",
    ), bad[:5]


def test_criterion_08_balanced_power_audits():
    bad = []
    totals = []
    for dims, bound in [((1, 1), 3), ((2, 2), 4)]:
        rep = desk_scale_audit(dims, bound, 2, "lemma14")
        totals.append(rep.total)
        if not rep.clean:
            bad.append((dims, bound, rep.hyp_only, rep.concl_only))
    assert _report(
        8,
        "gap conditions match the gap conclusion on [1,1] and [2,2]",
        not bad,
        f"audit totals {totals[0]} and {totals[1]} bundles, {len(bad)} dirty audits",
    ), bad


def test_criterion_09_three_factor_only_if(capsys=None):
    import json as _json

    dims = (2, 2, 2)
    degrees = set()
    for ell in range(-1, 2):
        degrees.add((ell,) * 3)
        for k in range(3):
            for c in (1, 2):
                degrees.add(tuple(ell + (c if m == k else 0) for m in range(3)))
    degrees = sorted(degrees)
    bundles = [line_bundle(dims, d) for d in degrees]
    for i, d1 in enumerate(degrees):
        for d2 in degrees[i:]:
            bundles.append(line_bundle(dims, d1) + line_bundle(dims, d2))
    bad = [str(E) for E in bundles if not thm12_violations(E).empty]
    report = desk_scale_audit(dims, 2, 1, "thm12")
    print("\n[criterion 09] full three-factor audit report:")
    print(_json.dumps(report.to_json(), indent=2))
    ok = not bad and report.total == 125
    assert _report(
        9,
        "accepted three-factor forms never violate; audit report emitted",
        ok,
        f"{len(bundles)} accepted-form bundles checked, {len(bad)} violated; "
        f"full audit: total={report.total} hyp_only={report.hyp_only} "
        f"concl_only={report.concl_only} mismatches={len(report.mismatches)}",
    ), bad[:5]


def test_criterion_10_interval_engine_soundness():
    from support import scan_window

    rng = random.Random(20260815)
    shapes = [
        dims
        for s in (1, 2, 3)
        for dims in itertools.product((1, 2, 3), repeat=s)
    ]
    checks = 0
    bad = []
    for _ in range(10_000):
        dims = rng.choice(shapes)
        s = len(dims)
        rank = rng.randint(1, 3)
        E = line_bundle(dims, tuple(rng.randint(-6, 6) for _ in range(s)))
        for _ in range(rank - 1):
            E = E + line_bundle(dims, tuple(rng.randint(-6, 6) for _ in range(s)))
        j = tuple(rng.randint(-4, 2) for _ in range(s))
        t = rng.randint(0, sum(dims))
        iset = nonvanishing_twist_intervals(E, j, t)
        for tau in scan_window(E, j):
            shifted = tuple(x + tau for x in j)
            checks += 1
            if (tau in iset) != (sum_cohomology_dim(E, shifted, t) > 0):
                bad.append((dims, E.summands, j, t, tau))
    assert _report(
        10,
        "interval engine agrees with direct scans",
        not bad,
        f"10000 random inputs, {checks} scan points, {len(bad)} discrepancies",
    ), bad[:3]
