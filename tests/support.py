"""Shared oracles and strategies for the test suite.

Everything here recomputes expected values by routes independent of the
package internals: monomial counts come from explicit recursion instead
of binomial coefficients, total cohomology is assembled by summing over
every per-factor degree splitting instead of reading off the one degree
that the sections/top/dead state of each factor allows, and Euler
characteristics are taken as literal alternating sums over all t.  The
audit oracle builds and checks every bundle of the box whole, instead of
classifying summand degrees and counting.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from hypothesis import strategies as st

from multicoh import (
    AuditReport,
    LineBundleSum,
    Shape,
    lemma14_check,
    lemma14_conclusion_match,
    line_bundle,
    sum_cohomology_dim,
    thm12_conclusion_match,
    thm12_violations,
    thm13_conclusion_match,
    thm13_violations,
)


@lru_cache(maxsize=None)
def count_monomials(nvars: int, degree: int) -> int:
    """Monomials of exact total degree in nvars variables, counted by recursion."""
    if degree < 0:
        return 0
    if nvars == 1:
        return 1
    return sum(count_monomials(nvars - 1, degree - k) for k in range(degree + 1))


def count_monomials_literal(nvars: int, degree: int) -> int:
    """Same count by brute enumeration of exponent vectors; small inputs only."""
    if degree < 0:
        return 0
    return sum(
        1
        for expo in itertools.product(range(degree + 1), repeat=nvars)
        if sum(expo) == degree
    )


def factor_dim_oracle(n: int, a: int, q: int) -> int:
    """dim H^q(P^n, O(a)) from monomial counts and duality, no binomials."""
    if q == 0:
        return count_monomials(n + 1, a)
    if q == n:
        return count_monomials(n + 1, -a - n - 1)
    return 0


def h0_oracle(dims, a) -> int:
    """Global sections of O(a) on the product: one monomial block per factor."""
    total = 1
    for n, ai in zip(dims, a):
        total *= count_monomials(n + 1, ai)
        if total == 0:
            return 0
    return total


def kunneth_oracle(dims, a, t) -> int:
    """Total-degree-t cohomology by summing over per-factor degree splittings."""
    dims = tuple(dims)
    if not dims:
        return 1 if t == 0 else 0
    n, rest = dims[0], dims[1:]
    total = 0
    for q in range(min(n, t) + 1):
        d = factor_dim_oracle(n, a[0], q)
        if d:
            total += d * kunneth_oracle(rest, a[1:], t - q)
    return total


def euler_by_alternating_sum(E: LineBundleSum, d=None) -> int:
    """chi(E(d)) as the literal alternating sum of all cohomology dimensions."""
    s = E.shape.s
    if d is None:
        d = (0,) * s
    return sum(
        (-1) ** t * sum_cohomology_dim(E, d, t) for t in range(E.shape.total_dim + 1)
    )


def scan_window(E: LineBundleSum, j) -> range:
    """Diagonal-twist window covering every candidate interval endpoint, plus 2."""
    ends = []
    for degree, _ in E.summands:
        for a, w, n in zip(degree, j, E.shape.dims):
            ends.append(-a - w)
            ends.append(-a - w - n - 1)
    return range(min(ends) - 2, max(ends) + 3)


def all_shapes(max_total: int):
    """Every factor-dimension tuple with total dimension between 1 and max_total."""
    out = []
    for total in range(1, max_total + 1):
        out.extend(compositions(total))
    return out


def compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        out.extend((first,) + rest for rest in compositions(total - first))
    return out


def criterion_sides(E: LineBundleSum, criterion: str, r=None) -> tuple[bool, bool]:
    """(hypothesis holds, conclusion holds) for one whole bundle."""
    if criterion == "thm12":
        return (thm12_violations(E).empty, thm12_conclusion_match(E).matched)
    if criterion == "thm13":
        return (thm13_violations(E, r).empty, thm13_conclusion_match(E, r).matched)
    return (lemma14_check(E).conditions_hold, lemma14_conclusion_match(E)[0])


def audit_oracle(shape, bound: int, max_rank: int, criterion: str, r=None) -> AuditReport:
    """The desk-scale audit by brute force: every multiset of degrees, checked whole.

    Bundles are visited by rank, then as sorted degree multisets, so the
    mismatches come out in the order desk_scale_audit promises.
    """
    shape = Shape(tuple(shape))
    degrees = sorted(itertools.product(range(-bound, bound + 1), repeat=shape.s))
    cells = [0, 0, 0, 0]
    mismatches = []
    for rho in range(1, max_rank + 1):
        for combo in itertools.combinations_with_replacement(degrees, rho):
            E = LineBundleSum(shape, tuple((d, 1) for d in combo))
            hyp, concl = criterion_sides(E, criterion, r)
            cells[(not hyp) * 2 + (not concl)] += 1
            if hyp != concl:
                mismatches.append((E, hyp, concl))
    return AuditReport(sum(cells), *cells, mismatches=tuple(mismatches))


# hypothesis strategies

shapes_st = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)

degree_coord = st.integers(-6, 6)


@st.composite
def bundles_st(draw, max_rank: int = 3):
    dims = draw(shapes_st)
    rank = draw(st.integers(1, max_rank))
    E = None
    for _ in range(rank):
        piece = line_bundle(dims, tuple(draw(degree_coord) for _ in dims))
        E = piece if E is None else E + piece
    return E
