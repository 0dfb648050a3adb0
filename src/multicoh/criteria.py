"""Cohomological splitting criteria for line bundle sums, and their audits.

Each criterion pairs a vanishing hypothesis with a splitting conclusion.
The hypothesis is quantified over the admissible tuples (i, j):

    1 <= i <= dim X - 1,   -i <= j_1 + ... + j_s <= 0,   -n_k <= j_k <= 0,

asking H^i(E(j + t*(1, ..., 1))) = 0 for every integer t, except on a
finite exceptional set of tuples where the allowed summands themselves
have cohomology.  The conclusions allow summands O(l*(1,...,1) + c*e_k)
with a per-axis cap on the excess c: cap 2 on every axis for the fixed
criterion (thm12), a caller-chosen cap vector r with 0 <= r_k <= n_k for
the parametrized one (thm13).  A degree has that form, c >= 0, exactly
when every coordinate but at most one equals its minimum l (_axis_form).

The exceptional set is computed from the allowed forms themselves: a
summand with excess c >= 1 on axis k has its cohomology concentrated in
degree i = dim X - n_k, at twists j with j_l - j_k <= c - n_l - 1 for
every l != k.  On two factors this reduces to the four classical tuples
(n_1, -n_1, 0), (n_1, -n_1+1, 0), (n_2, 0, -n_2), (n_2, 0, -n_2+1) for
caps (2, 2), which is the regression anchor; the same rule makes the
only-if direction exact on any number of factors.

The balanced-power criterion (lemma14) lives on (P^n)^s and bounds the
pairwise gaps of every summand degree by n.

A hypothesis is checked per summand over its whole box of twists j: the
runs of core._diagonal_runs, a join that applies its own guards, give each
(i, j) with H^i != 0 with its interval of diagonal twists; each is
filtered, and its rows counted, as the join yields it (see _box_hits).

An audit cross-tabulates hypothesis against conclusion over every canonical bundle
in a degree box up to a rank cap, deciding each diagonal class at its first kept run,
and lists the mismatches by a pruned walk over sorted degree prefixes (_audit_rows),
whose rows desk_scale_audit turns into bundles and the CLI renders as they are.
"""

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import product
from math import comb

from .core import (
    COUNT_BITS,
    Degree,
    InputError,
    LineBundleSum,
    Shape,
    _as_shape,
    _box_size,
    _canonical,
    _check_vector,
    _diagonal_runs,
    _line_cohomology,
    _refuse_past,
    bundle_to_doc,
)

AUDIT_GUARD = 10_000_000
# Box degrees an audit may evaluate; each is a full criterion check on a line bundle.
DEGREE_GUARD = 10_000
# Rows an audit or a check may list: mismatch bundles, or (i, j, tau) hits of a check.
LISTING_GUARD = 100_000


class HypothesisDomainError(InputError):
    """The bundle's shape is outside the criterion's domain."""

    def __init__(self, message: str):
        super().__init__("E_DOMAIN", message)


class AuditGuardError(InputError):
    """The requested enumeration exceeds the desk-scale guard."""

    def __init__(self, message: str):
        super().__init__("E_GUARD", message)


def admissible_tuples(shape: Shape) -> tuple[tuple[int, Degree], ...]:
    """All (i, j) in the admissible region, sorted by (i, j)."""
    out = []
    total = shape.total_dim
    for j in product(*[range(-n, 1) for n in shape.dims]):
        sj = sum(j)
        for i in range(max(1, -sj), total):
            out.append((i, j))
    out.sort()
    return tuple(out)


def is_admissible(shape, i: int, j) -> bool:
    shape = _as_shape(shape)
    j = _check_vector(shape, j, "twist")
    if not 1 <= i <= shape.total_dim - 1:
        return False
    if not -i <= sum(j) <= 0:
        return False
    return all(-n <= x <= 0 for x, n in zip(j, shape.dims))


def _is_exceptional(dims: tuple[int, ...], caps: tuple[int, ...], i: int, j: Degree) -> bool:
    """Whether (i, j) is exempt under the caps, by the rule of exceptional_tuples."""
    total = sum(dims)
    for k, (n, cap) in enumerate(zip(dims, caps)):
        if cap < 1 or i != total - n:
            continue
        for l, m in enumerate(dims):
            if l != k and j[l] - j[k] > cap - m - 1:
                break
        else:
            return True
    return False


def exceptional_tuples(shape: Shape, caps: tuple[int, ...]) -> frozenset[tuple[int, Degree]]:
    """Admissible tuples where the allowed summand forms have cohomology.

    For axis k with cap_k >= 1 these sit at i = dim X - n_k, at twists j
    with j_l - j_k <= cap_k - n_l - 1 for all l != k.  Empty for an axis
    with cap 0; monotone in the caps.  The criteria apply the same rule to
    each (i, j) of each phase join and never build this set.
    """
    return frozenset(
        (i, j) for i, j in admissible_tuples(shape) if _is_exceptional(shape.dims, caps, i, j)
    )


@dataclass(frozen=True)
class ViolationReport:
    """Nonvanishing found outside the exceptional set: rows (i, j, t, dim)."""

    shape: Shape
    rows: tuple[tuple[int, Degree, int, int], ...] = field(default=())

    @property
    def empty(self) -> bool:
        return not self.rows

    def to_rows(self) -> list[dict]:
        return [{"i": i, "j": list(j), "t": t, "dim": dim} for i, j, t, dim in self.rows]


def _box_hits(E: LineBundleSum, lows, keep) -> list[tuple[int, Degree, int, int]]:
    """Sorted rows (i, j, tau, dim), dim = dim H^i(E(j + tau*(1,...,1))) != 0, over the box
    lows_k <= j_k <= 0 (lows_k >= -n_k) and the degrees 0 < i < dim X with keep(i, j), from
    the runs of core._diagonal_runs; keep is called once per run.

    The join applies its own guards (core.JBOX_GUARD, then core.DIAGONAL_GUARD) before it
    yields a run, and stops with E_GUARD once the kept runs' lengths, summed as it yields
    them, pass LISTING_GUARD rows.  The dimension at tau is mult times the per-axis
    binomials, computed at first and then stepped: x -> x+1 scales C(x+n_k, n_k) (sections)
    and C(-x-1, n_k) (top) alike by (x+n_k+1)/(x+1), one multiply and one exact divide per row.
    """
    dims = E.shape.dims
    rows, runs = 0, []
    for run in _diagonal_runs(E, lows):
        if keep(run[0], run[1]):
            rows = _refuse_past(rows + run[3] - run[2] + 1, LISTING_GUARD, "rows", "listing guard")
            runs.append(run)
    hits: dict[tuple[int, Degree, int], int] = {}
    for i, j, first, last, degree, mult in runs:
        xs = [a + x + first for a, x in zip(degree, j)]  # each axis's x at tau = first
        dim = mult * _line_cohomology(dims, xs)[1]
        for t in range(last - first + 1):
            if t:  # each axis steps from x + t - 1 to x + t
                num = den = 1
                for x, n in zip(xs, dims):
                    num *= x + n + t
                    den *= x + t
                dim = dim * num // den
            hits[i, j, first + t] = hits.get((i, j, first + t), 0) + dim
    return sorted(key + (dim,) for key, dim in hits.items())


def _no_kept_run(E: LineBundleSum, lows, keep) -> bool:
    """Whether _box_hits(E, lows, keep) has no row, by the first kept run: a kept run has
    first <= last and dims >= 1.  The join's guards run; the listing guard does not."""
    return not any(keep(run[0], run[1]) for run in _diagonal_runs(E, lows))


def _criterion_box(E: LineBundleSum, caps: tuple[int, ...]):
    """(lows, keep) of thm12 and thm13: the box -n_k <= j_k <= 0, admissible, not exceptional."""
    dims = E.shape.dims
    # admissible means max(1, -sum(j)) <= i < dim X; _box_hits offers 0 < i < dim X only
    return [-n for n in dims], lambda i, j: -sum(j) <= i and not _is_exceptional(dims, caps, i, j)


def _require_excess_shape(shape: Shape) -> None:
    if any(n < 2 for n in shape.dims):
        raise HypothesisDomainError("excess-2 criterion needs every factor of dimension >= 2")


def thm12_violations(E: LineBundleSum) -> ViolationReport:
    """Hypothesis check with every axis capped at excess 2; needs all n_k >= 2."""
    _require_excess_shape(E.shape)
    return ViolationReport(E.shape, tuple(_box_hits(E, *_criterion_box(E, (2,) * E.shape.s))))


def _check_caps(shape: Shape, r) -> tuple[int, ...]:
    if r is None:
        raise InputError("E_USAGE", "criterion thm13 needs a cap vector r")
    r = _check_vector(shape, r, "cap vector r")
    for cap, n in zip(r, shape.dims):
        if not 0 <= cap <= n:
            raise InputError("E_RANGE", f"cap {cap} outside [0, {n}]")
    return r


def thm13_violations(E: LineBundleSum, r) -> ViolationReport:
    """Hypothesis check with per-axis excess caps r, 0 <= r_k <= n_k."""
    caps = _check_caps(E.shape, r)
    return ViolationReport(E.shape, tuple(_box_hits(E, *_criterion_box(E, caps))))


def miyazaki_violations(E: LineBundleSum, r=None) -> ViolationReport:
    """Two-factor specialization: capped at 2 without r, at r with it."""
    if E.shape.s != 2:
        raise HypothesisDomainError("two-factor criterion needs exactly two factors")
    return thm12_violations(E) if r is None else thm13_violations(E, r)


@dataclass(frozen=True)
class SplitForm:
    """Result of matching every summand against the allowed split forms.

    assignment has one (degree, l, axis, c) entry per distinct summand
    degree, meaning degree = l*(1,...,1) + c*e_axis; axis is None when
    c = 0.  When a summand fits no form, matched is False and offender
    holds the first such degree.
    """

    matched: bool
    caps: tuple[int, ...]
    assignment: tuple[tuple[Degree, int, int | None, int], ...] = field(default=())
    offender: Degree | None = None

    def __bool__(self) -> bool:
        return self.matched


def _axis_form(degree: Degree, caps: tuple[int, ...]) -> tuple[int, int | None, int] | None:
    """degree as (l, k, c): l*(1,...,1) + c*e_k, 0 <= c <= caps[k], k None if c = 0; or None."""
    ell = min(degree)
    above = [(k, x - ell) for k, x in enumerate(degree) if x != ell]
    if len(above) > 1 or above and above[0][1] > caps[above[0][0]]:
        return None
    return (ell, *above[0]) if above else (ell, None, 0)


def _match_forms(E: LineBundleSum, caps: tuple[int, ...]) -> SplitForm:
    assignment = []
    for degree, _ in E.summands:
        form = _axis_form(degree, caps)
        if form is None:
            return SplitForm(False, caps, offender=degree)
        assignment.append((degree,) + form)
    return SplitForm(True, caps, tuple(assignment))


def thm12_conclusion_match(E: LineBundleSum) -> SplitForm:
    """Match each summand to l*(1,...,1) + c*e_k with c in {0, 1, 2}."""
    return _match_forms(E, (2,) * E.shape.s)


def thm13_conclusion_match(E: LineBundleSum, r) -> SplitForm:
    """Match each summand to l*(1,...,1) + c*e_k with 0 <= c <= r_k."""
    return _match_forms(E, _check_caps(E.shape, r))


def lemma14_conclusion_match(E: LineBundleSum) -> tuple[bool, Degree | None]:
    """Whether every summand degree has pairwise coordinate gaps <= n."""
    n = E.shape.dims[0]
    for degree, _ in E.summands:
        if max(degree) - min(degree) > n:
            return (False, degree)
    return (True, None)


@dataclass(frozen=True)
class Lemma14Report:
    """Outcome of the balanced-power vanishing conditions.

    Witness rows are (condition, t, j, tau, dim) with condition "a" for the
    off-diagonal-degree checks over gap patterns j (never met by a line bundle
    sum) and "b" for the diagonal H^n check.  Degrees above dim X cannot carry
    sheaf cohomology; they are still part of the stated conditions, so they
    are recorded in vacuous_degrees rather than silently dropped.
    """

    conditions_hold: bool
    witnesses: tuple[tuple[str, int, Degree, int, int], ...] = field(default=())
    vacuous_degrees: tuple[int, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.conditions_hold

    def to_rows(self) -> list[dict]:
        return [
            {"condition": c, "t": t, "j": list(j), "tau": tau, "dim": dim}
            for c, t, j, tau, dim in self.witnesses
        ]

    def to_json(self) -> dict:
        return {
            "conditions_hold": self.conditions_hold,
            "vacuous_degrees": list(self.vacuous_degrees),
            "witnesses": self.to_rows(),
        }


def _require_power_shape(shape: Shape) -> int:
    n = shape.dims[0]
    if shape.s < 2 or any(m != n for m in shape.dims):
        raise HypothesisDomainError("balanced-power criterion needs (P^n)^s with s >= 2")
    return n


def lemma14_check(E: LineBundleSum) -> Lemma14Report:
    """Vanishing conditions on (P^n)^s.

    (a) H^t(E(j)) = 0 for every j with pairwise gaps <= n and every
        t in {1, ..., sn-1} that is not a multiple of n; the listed
        degree sn+1 exceeds dim X and is flagged vacuous.
    (b) H^n(E(t, ..., t)) = 0 for every integer t.

    A summand has cohomology only in degree n times its number of top
    factors, so (a) never fails on a line bundle sum.  Only (b) is checked:
    the box of twists is the zero pattern alone, kept at degree n, and every
    witness has condition "b".
    """
    witnesses = [("b",) + row for row in _box_hits(E, *_lemma14_box(E))]
    return Lemma14Report(not witnesses, tuple(witnesses), (E.shape.total_dim + 1,))


def _lemma14_box(E: LineBundleSum):
    """(lows, keep) of condition (b): the zero pattern j = 0 alone, kept at degree n."""
    n = _require_power_shape(E.shape)
    return [0] * E.shape.s, lambda t, g: t == n


@dataclass(frozen=True)
class AuditReport:
    """Contingency table of hypothesis versus conclusion over an enumeration."""

    total: int
    both: int
    hyp_only: int
    concl_only: int
    neither: int
    mismatches: tuple[tuple[LineBundleSum, bool, bool], ...] = field(default=())

    @property
    def clean(self) -> bool:
        return self.hyp_only == 0 and self.concl_only == 0

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "mismatches"}
        doc["mismatches"] = [{"bundle": bundle_to_doc(E), "hypothesis": hyp, "conclusion": concl}
                             for E, hyp, concl in self.mismatches]
        return doc


def _no_caps(r) -> None:
    if r is not None:
        raise InputError("E_USAGE", "caps r only apply to criterion thm13")


def _thm12_domain(shape: Shape, r) -> None:
    _require_excess_shape(shape)
    _no_caps(r)


def _lemma14_domain(shape: Shape, r) -> None:
    _no_caps(r)
    _require_power_shape(shape)


# criterion -> (domain and caps check returning the caps, hypothesis, conclusion).  Each
# hypothesis is thm12_violations(E).empty, thm13_violations(E, r).empty or
# lemma14_check(E).conditions_hold, from the same (lows, keep) by _no_kept_run.
# Every criterion registered here must give the same (hypothesis, conclusion) on O(a) and on
# O(a + l*(1,...,1)) for every integer l, since the audit checks one degree per
# diagonal class.  These three do: H^i(O(a + l*1)(j + tau*1)) = H^i(O(a)(j + (tau+l)*1)),
# the hypotheses quantify over every tau, and the exceptional set depends on (i, j, caps)
# alone, so a shift only relabels tau (for lemma14's condition (b), t = tau).  The forms
# l*(1,...,1) + c*e_k of thm12 and thm13 leave l free, and lemma14's conclusion reads only
# the gaps a_i - a_k.
_CRITERIA = {
    "thm12": (_thm12_domain,
              lambda E, r: _no_kept_run(E, *_criterion_box(E, (2,) * E.shape.s)),
              lambda E, r: thm12_conclusion_match(E).matched),
    "thm13": (_check_caps,
              lambda E, r: _no_kept_run(E, *_criterion_box(E, r)),
              lambda E, r: thm13_conclusion_match(E, r).matched),
    "lemma14": (_lemma14_domain,
                lambda E, r: _no_kept_run(E, *_lemma14_box(E)),
                lambda E, r: lemma14_conclusion_match(E)[0]),
}


def desk_scale_audit(shape, bound: int, max_rank: int, criterion: str, r=None) -> AuditReport:
    """Cross-tabulate a criterion over every canonical bundle in a box.

    Covers all canonical LineBundleSums with summand degrees in [-bound, bound]^s
    and rank <= max_rank, each multiset of degrees once, and reports the 2x2
    counts of hypothesis against conclusion plus every bundle where they
    disagree, by rank, then in sorted order.  Each diagonal class of the box is
    evaluated once, on O(a) for its first degree a (see _CRITERIA), and the counts
    are multiset binomials over the four (hypothesis, conclusion) classes.  Refuses
    boxes beyond 10^7 candidates or 10^4 degrees (not classes) before evaluating
    any degree, and more than 10^5 mismatches before building any of them (_audit_rows).
    """
    shape = _as_shape(shape)
    counts, rows = _audit_rows(shape, bound, max_rank, criterion, r)
    return AuditReport(*counts, tuple((_canonical(shape, s), m == 1, m == 2) for s, m in rows))


def _audit_rows(shape: Shape, bound: int, max_rank: int, criterion: str, r):
    """((total, both, hyp_only, concl_only, neither), rows) of desk_scale_audit, with its
    checks and refusals in its order; rows lists each mismatch as (summands, mask) in report
    order, summands canonical and mask 1 (the hypothesis alone holds) or 2 (the conclusion).

    The listing walks prefixes P: non-decreasing index tuples into the N live
    degrees (where a side holds) in product order, each with its mask (the AND of
    its degrees' classes; bit 1 the hypothesis, bit 2 the conclusion), last index
    and summands.  Mismatches are the P of mask 1 or 2.  Level rho + 1 takes each
    P of level rho in turn and adds its children P + (i), i >= last rising, whose
    class meets its mask, but no child of mask 3 past L, the last one-sided (mask
    1 or 2) index, or at the last rank.  Order: the levels are sorted by induction
    (P < Q gives P + (i) < Q + (j)), and product order is sorted order.  Once:
    P + (i) comes from P alone.  Every mismatch comes: its prefixes' masks hold
    its own, and one of mask 3 is followed by a one-sided index, so by indices
    <= L.  Work: no P of mask 0 is made, and a P of mask 3 has the mismatch
    P + (L); so at most 2 * rows + 1 prefixes are made, each by one binary search
    and one tuple copy (appending the shared (a, 1) or adding one to the last
    multiplicity): O(rows * (rank + log N)), not O(candidates).
    """
    if bound < 0 or max_rank < 1:
        raise InputError("E_RANGE", "need bound >= 0 and max_rank >= 1")
    if criterion not in _CRITERIA:
        raise InputError("E_USAGE", f"unknown criterion {criterion!r}")
    domain, hypothesis, conclusion = _CRITERIA[criterion]
    r = domain(shape, r)

    def multisets(n: int) -> int:
        """Multisets of size 1 .. max_rank from n degrees: C(n+max_rank, max_rank) - 1."""
        return comb(n + max_rank, min(n, max_rank)) - 1  # by the hockey-stick identity

    # C(N+R, k) - 1, k = min(N, R), has at most k * bit_length(N+R) bits: counted only while cheap
    degrees = _box_size([2 * bound + 1] * shape.s)
    cheap = degrees is not None and (
        min(degrees, max_rank) * (degrees + max_rank).bit_length() <= COUNT_BITS)
    candidates = multisets(degrees) if cheap else None
    _refuse_past(candidates, AUDIT_GUARD, "candidate bundles", "desk-scale guard", AuditGuardError)
    _refuse_past(degrees, DEGREE_GUARD, "degrees", "degree guard", AuditGuardError)
    # product yields the degrees in lexicographic order, as canonical bundles sort them; a
    # class is keyed by its member with minimum 0 and checked on its first degree in the box.
    flags, classes = {}, {}
    for a in product(range(-bound, bound + 1), repeat=shape.s):
        low = min(a)
        key = tuple([x - low for x in a])
        if key not in classes:
            E = LineBundleSum(shape, ((a, 1),))
            classes[key] = (hypothesis(E, r), conclusion(E, r))
        flags[a] = classes[key]
    both = multisets(sum(h and c for h, c in flags.values()))
    hyp_only = multisets(sum(h for h, _ in flags.values())) - both
    concl_only = multisets(sum(c for _, c in flags.values())) - both
    listed = _refuse_past(hyp_only + concl_only, LISTING_GUARD, "mismatch rows", "listing guard",
                          AuditGuardError)
    rows = []
    if listed:  # the walk of the docstring; pairs[i] is shared by every mismatch holding i once
        pairs, bits = zip(*[((a, 1), h + 2 * c) for a, (h, c) in flags.items() if h or c])
        after = {m: [i for i, b in enumerate(bits) if b & m] for m in (1, 2)}
        after[3] = [i for i, b in enumerate(bits) if b != 3]  # mask 3, at the last rank
        level, end = [(3, 0, ())], after[3][-1] + 1
        for rho in range(1, max_rank + 1):
            children = []
            for mask, last, summands in level:
                indices = (range(last, end) if mask == 3 and rho < max_rank
                           else after[mask][bisect_left(after[mask], last):])
                if summands and indices[0] == last:  # one more of the last degree
                    (a, k), indices = summands[-1], indices[1:]
                    children.append((mask, last, summands[:-1] + ((a, k + 1),)))
                children += [(mask & bits[i], i, summands + (pairs[i],)) for i in indices]
            rows += [(s, m) for m, _, s in children if m != 3]
            level = children
    neither = candidates - both - hyp_only - concl_only
    return (candidates, both, hyp_only, concl_only, neither), rows
