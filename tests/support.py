"""Shared oracles and strategies for the test suite.

Everything here recomputes expected values by routes independent of the
package internals: monomial counts come from explicit recursion instead
of binomial coefficients, total cohomology is assembled by summing over
every per-factor degree splitting instead of reading off the one degree
that the sections/top/dead state of each factor allows, and Euler
characteristics are taken as literal alternating sums over all t.  The
audit oracle builds and checks every bundle of the box whole, instead of
classifying summand degrees and counting.  The criterion oracles scan
every admissible tuple outside the exceptional set, and every lemma14 gap
pattern and degree, twist by twist over a window of diagonal twists that
holds every candidate endpoint, instead of cutting each summand's window
into phases and joining its per-axis cells with their intervals of twists.
The table renderer flattens each row into its cells and sorts by them,
instead of sorting the rows as tuples.  The split-form oracle tries every
l, k and c, instead of reading the form off the minimum coordinate.  The
corner-pair oracle builds each whole corner degree and runs kunneth_dim on
it, instead of taking prefix and suffix products of per-axis factors.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

from hypothesis import strategies as st

from multicoh import (
    AuditReport,
    LineBundleSum,
    Shape,
    admissible_tuples,
    dualizing_degree,
    exceptional_tuples,
    kunneth_dim,
    lemma14_check,
    lemma14_conclusion_match,
    sum_cohomology_dim,
    thm12_conclusion_match,
    thm12_violations,
    thm13_conclusion_match,
    thm13_violations,
)


def forbid_diagonal_join(monkeypatch) -> None:
    """Make any phase join of core._diagonal_runs fail the test.  The join builds each
    axis's cells from range, which nothing else in core calls on the check and acm paths."""
    import multicoh.core as core

    def joined(*args):
        raise AssertionError("a phase of the diagonal join was joined")

    monkeypatch.setattr(core, "range", joined, raising=False)


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


def criterion_rows_oracle(E: LineBundleSum, caps) -> tuple:
    """The rows (i, j, t, dim) of a capped criterion, by scanning twists one by one.

    Every admissible tuple outside the exceptional set is scanned over
    scan_window(E, j), which holds every bounded piece of the ray.
    """
    skip = exceptional_tuples(E.shape, tuple(caps))
    rows = []
    for i, j in admissible_tuples(E.shape):
        if (i, j) in skip:
            continue
        for t in scan_window(E, j):
            dim = sum_cohomology_dim(E, [x + t for x in j], i)
            if dim:
                rows.append((i, j, t, dim))
    return tuple(sorted(rows))


def lemma14_rows_oracle(E: LineBundleSum) -> tuple:
    """The witnesses (condition, t, g, tau, dim) of lemma14 on (P^n)^s, by scanning twists.

    Every gap pattern g in [-n, 0]^s with max g = 0 and every degree
    0 < t < sn is scanned over scan_window(E, g): condition "a" off the
    multiples of n, "b" at t = n on the zero pattern, no condition elsewhere.
    """
    n, s = E.shape.dims[0], E.shape.s
    zero = (0,) * s
    rows = []
    for g in itertools.product(range(-n, 1), repeat=s):
        if max(g) != 0:
            continue
        for t in range(1, s * n):
            condition = "a" if t % n else "b" if t == n and g == zero else None
            if condition is None:
                continue
            for tau in scan_window(E, g):
                dim = sum_cohomology_dim(E, [x + tau for x in g], t)
                if dim:
                    rows.append((condition, t, g, tau, dim))
    return tuple(sorted(rows))


def emit_table_oracle(rows, columns, fmt: str) -> str:
    """What the CLI prints for rows in column order: flattened and rendered in the given order."""
    flat = []
    for row in rows:
        cells = []
        for value, (_, width) in zip(row, columns):
            cells.extend(value) if width else cells.append(value)
        flat.append(cells)
    headers = []
    for name, width in columns:
        headers.extend([f"{name}_{k}" for k in range(1, width + 1)] if width else [name])
    if fmt == "json":
        docs = []
        for cells in flat:
            doc, at = {}, 0
            for name, width in columns:
                doc[name] = cells[at:at + width] if width else cells[at]
                at += width or 1
            docs.append(doc)
        return json.dumps(docs, separators=(",", ":"))
    lines = [headers] + [[str(c) for c in cells] for cells in flat]
    if fmt == "csv":
        return "\n".join(",".join(line) for line in lines)
    widths = [max(len(line[k]) for line in lines) for k in range(len(headers))]
    return "\n".join("  ".join(text.rjust(w) for text, w in zip(line, widths)) for line in lines)


def iso_dims_oracle(dims) -> tuple[tuple[int, int], ...]:
    """proposition_iso_dims by one kunneth_dim call per whole corner degree (quadratic in s)."""
    shape = Shape(tuple(dims))
    top = kunneth_dim(shape, dualizing_degree(shape), shape.total_dim)
    h0 = kunneth_dim(shape, (0,) * shape.s, 0)
    pairs = []
    for k, n in enumerate(shape.dims):
        corner = kunneth_dim(shape, tuple(-n - 1 if i == k else 0 for i in range(shape.s)), n)
        pairs += [(corner, top), (h0, corner)]
    return tuple(pairs)


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


def split_form_oracle(degree, caps) -> tuple[int, int | None, int] | None:
    """(l, k, c) with degree = l*(1,...,1) + c*e_k and 0 <= c <= caps[k], the least c first
    (k None when c = 0), or None, found by trying every l, k and c in turn."""
    for c in range(max(caps) + 1):
        for k in range(len(degree)):
            for ell in range(min(degree) - c, max(degree) + 1):
                if c <= caps[k] and all(x == ell + c * (i == k) for i, x in enumerate(degree)):
                    return (ell, k if c else None, c)
    return None


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
def bundles_st(draw, max_rank: int = 3, max_mult: int = 1):
    """Up to max_rank summands, each of multiplicity up to max_mult (equal degrees merge)."""
    dims = draw(shapes_st)
    rank = draw(st.integers(1, max_rank))
    E = None
    for _ in range(rank):
        degree = tuple(draw(degree_coord) for _ in dims)
        piece = LineBundleSum(Shape(dims), ((degree, draw(st.integers(1, max_mult))),))
        E = piece if E is None else E + piece
    return E
