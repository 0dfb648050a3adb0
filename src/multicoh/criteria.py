"""Cohomological splitting criteria for line bundle sums, and their audits.

Each criterion pairs a vanishing hypothesis with a splitting conclusion.
The hypothesis is quantified over the admissible tuples (i, j):

    1 <= i <= dim X - 1,   -i <= j_1 + ... + j_s <= 0,   -n_k <= j_k <= 0,

asking H^i(E(j + t*(1, ..., 1))) = 0 for every integer t, except on a
finite exceptional set of tuples where the allowed summands themselves
have cohomology.  The conclusions allow summands O(l*(1,...,1) + c*e_k)
with a per-axis cap on the excess c: cap 2 on every axis for the fixed
criterion (thm12), a caller-chosen cap vector r with 0 <= r_k <= n_k for
the parametrized one (thm13).

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
diagonal twists where it can fail are cut into phases on which no factor
turns from top to sections cohomology, and on each phase the per-axis cells
are joined into the (i, j) with H^i != 0, each with its interval of twists,
and filtered once (see _box_hits).

desk_scale_audit cross-tabulates hypothesis against conclusion over every
canonical bundle in a degree box up to a rank cap.  On a direct sum both
sides are ANDs over the summands, so it evaluates each degree once on its
line bundle, counts the 2x2 table with multiset binomials over the four
(hypothesis, conclusion) classes, and builds only the mismatches, which it
reports verbatim.
"""

from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import combinations_with_replacement, groupby, product
from math import comb, prod
from operator import and_

from .core import (
    COUNT_BITS,
    Degree,
    InputError,
    LineBundleSum,
    Shape,
    _as_shape,
    _canonical,
    _check_vector,
    _guard_message,
    _line_cohomology,
    bundle_to_doc,
)

AUDIT_GUARD = 10_000_000
# Box degrees an audit may evaluate; each is a full criterion check on a line bundle.
DEGREE_GUARD = 10_000
# Rows an audit or a check may list: mismatch bundles, or (i, j, tau) hits of a check.
LISTING_GUARD = 100_000
# Twists j in a check's box; no level of a summand's phase join holds more than this.
JBOX_GUARD = 10_000


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


def _box_hits(E: LineBundleSum, lows, keep) -> dict[tuple[int, Degree, int], int]:
    """{(i, j, tau): dim H^i(E(j + tau*(1,...,1))) != 0} over the box lows_k <= j_k <= 0
    (lows_k >= -n_k) and the degrees 0 < i < dim X with keep(i, j).

    Per summand O(a), cell (k, x), factor k at j_k = x, is top for tau <= -a_k-x-n_k-1,
    dead up to -a_k-x-1 and in sections from -a_k-x on.  A top cell (x < -a_k-tau-n_k)
    and a sections cell (x >= -a_k-tau) lie more than n_k apart, further than any two
    j_k of the box, so axis k has top cells only for tau < e_k = -a_k-lows_k-n_k and
    sections cells only for tau >= -a_k >= e_k.  Window: 0 < i < dim X needs a sections
    axis and a top axis, so -max a <= tau < max e.  Phases: the window is cut at every
    -a_k inside it, so no axis turns to sections inside a phase.  An axis with neither
    kind of cell at the start of a phase has none to its end.  Otherwise each axis is
    top (T) or sections (S) throughout, except that a T axis may run out of top cells
    at e_k, and every j's interval ends before that.  So i = sum(n_k over T) is constant
    where j is live, and j is live at tau iff tau <= -a_k-j_k-n_k-1 on T and
    tau >= -a_k-j_k on S: one interval, which the join of the axes' cells carries,
    dropping j once it is empty.  keep runs once per live j of a phase, on at most s
    phases, and no level of a join holds more than the box, whatever the gaps of a.
    Boxes past JBOX_GUARD twists j are refused with E_GUARD before any join, and more
    than LISTING_GUARD rows (the intervals' lengths, summed per summand) before any tau
    is expanded.  The dimension at tau is mult times the per-axis binomials, computed at
    first and then stepped: x -> x+1 scales C(x+n_k, n_k) (sections) and C(-x-1, n_k)
    (top) alike by (x+n_k+1)/(x+1), one multiply and one exact divide per row.
    """
    dims = E.shape.dims
    sides = [1 - lo for lo in lows]
    box = prod(sides) if max(sides).bit_length() * len(sides) <= COUNT_BITS else None
    if box is None or box > JBOX_GUARD:
        raise InputError("E_GUARD", _guard_message(box, "twists j", "j-box guard", JBOX_GUARD))
    runs, rows = [], 0  # (i, j, first, last, degree, mult) per kept j of a phase, their row count
    for degree, mult in E.summands:
        ends = [-a - lo - n for a, lo, n in zip(degree, lows, dims)]
        right = max(ends)  # the window ends where the last axis runs out of top cells
        cuts = sorted({right, *(-a for a in degree if -a < right)})
        for start, stop in zip(cuts, cuts[1:]):
            i, live = 0, [((), start, stop - 1)]  # j so far, first and last tau it is live at
            for a, lo, n, end in zip(degree, lows, dims, ends):
                if start < end:  # top: cell x until u = -a-x-n-1
                    i += n
                    cells = [(x, -a - x - n - 1) for x in range(lo, min(0, -a - n - 1 - start) + 1)]
                    live = [(j + (x,), first, u if u < last else last)
                            for j, first, last in live for x, u in cells if u >= first]
                elif start >= -a:  # sections: cell x from v = -a-x on
                    cells = [(x, -a - x) for x in range(max(lo, -a - stop + 1), 1)]
                    live = [(j + (x,), v if v > first else first, last)
                            for j, first, last in live for x, v in cells if v <= last]
                else:
                    break
            else:
                for j, first, last in live:
                    if keep(i, j):
                        rows += last - first + 1
                        runs.append((i, j, first, last, degree, mult))
    if rows > LISTING_GUARD:
        raise InputError("E_GUARD", _guard_message(rows, "rows", "listing guard", LISTING_GUARD))
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
    return hits


def _criterion_violations(E: LineBundleSum, caps: tuple[int, ...]) -> ViolationReport:
    shape = E.shape
    dims = shape.dims

    def keep(i: int, j: Degree) -> bool:
        # admissible means max(1, -sum(j)) <= i < dim X; _box_hits offers 0 < i < dim X only
        return -sum(j) <= i and not _is_exceptional(dims, caps, i, j)

    hits = _box_hits(E, [-n for n in dims], keep)
    return ViolationReport(shape, tuple(sorted(key + (dim,) for key, dim in hits.items())))


def _require_excess_shape(shape: Shape) -> None:
    if any(n < 2 for n in shape.dims):
        raise HypothesisDomainError("excess-2 criterion needs every factor of dimension >= 2")


def thm12_violations(E: LineBundleSum) -> ViolationReport:
    """Hypothesis check with every axis capped at excess 2; needs all n_k >= 2."""
    _require_excess_shape(E.shape)
    return _criterion_violations(E, (2,) * E.shape.s)


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
    return _criterion_violations(E, _check_caps(E.shape, r))


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
    if len(degree) == 1:
        return (degree[0], None, 0)
    for k in range(len(degree)):
        others = degree[:k] + degree[k + 1:]
        if any(x != others[0] for x in others):
            continue
        ell = others[0]
        c = degree[k] - ell
        if 0 <= c <= caps[k]:
            return (ell, k if c else None, c)
    return None


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
    shape = E.shape
    n = _require_power_shape(shape)
    s = shape.s
    hits = _box_hits(E, [0] * s, lambda t, g: t == n)
    witnesses = sorted([("b", t, g, tau, dim) for (t, g, tau), dim in hits.items()])
    return Lemma14Report(not witnesses, tuple(witnesses), (s * n + 1,))


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


# criterion -> (domain and caps check returning the caps, hypothesis, conclusion).  The
# lambdas look the checks up at call time, so wrappers installed on the module see each one.
_CRITERIA = {
    "thm12": (_thm12_domain,
              lambda E, r: thm12_violations(E).empty,
              lambda E, r: thm12_conclusion_match(E).matched),
    "thm13": (_check_caps,
              lambda E, r: thm13_violations(E, r).empty,
              lambda E, r: thm13_conclusion_match(E, r).matched),
    "lemma14": (_lemma14_domain,
                lambda E, r: lemma14_check(E).conditions_hold,
                lambda E, r: lemma14_conclusion_match(E)[0]),
}


def desk_scale_audit(
    shape,
    bound: int,
    max_rank: int,
    criterion: str,
    r=None,
    jobs: int = 1,
) -> AuditReport:
    """Cross-tabulate a criterion over every canonical bundle in a box.

    Covers all canonical LineBundleSums with summand degrees in
    [-bound, bound]^s and rank <= max_rank (each multiset of degrees once)
    and reports the 2x2 counts of hypothesis against conclusion plus every
    bundle where they disagree, by rank, then in sorted order.  Both sides
    are ANDs over the summands: each degree is evaluated once on O(a), the
    counts are multiset binomials over the four (hypothesis, conclusion)
    classes, and only mismatches are built.  Refuses boxes beyond 10^7
    candidates or 10^4 degrees before evaluating any degree, and more than
    10^5 mismatches before building any of them.  jobs is accepted for
    compatibility and has no effect.
    """
    shape = _as_shape(shape)
    if bound < 0 or max_rank < 1:
        raise InputError("E_RANGE", "need bound >= 0 and max_rank >= 1")
    if criterion not in _CRITERIA:
        raise InputError("E_USAGE", f"unknown criterion {criterion!r}")
    domain, hypothesis, conclusion = _CRITERIA[criterion]
    r = domain(shape, r)

    def multisets(n: int) -> int:
        """Multisets of size 1 .. max_rank from n degrees: C(n+max_rank, max_rank) - 1."""
        return comb(n + max_rank, min(n, max_rank)) - 1  # by the hockey-stick identity

    # From k = min(degrees, max_rank) = 24 on there are at least C(48, 24) - 1 > AUDIT_GUARD
    # candidates; the message counts them only while k * bit_length(degrees + max_rank) is cheap.
    side = 2 * bound + 1
    degrees = side ** shape.s if (side.bit_length() - 1) * shape.s <= COUNT_BITS else None
    k = None if degrees is None else min(degrees, max_rank)
    cheap = k is not None and (k < 24 or k * (degrees + max_rank).bit_length() <= COUNT_BITS)
    candidates = multisets(degrees) if cheap else None
    if candidates is None or candidates > AUDIT_GUARD:
        raise AuditGuardError(
            _guard_message(candidates, "candidate bundles", "desk-scale guard", AUDIT_GUARD)
        )
    if degrees > DEGREE_GUARD:
        raise AuditGuardError(_guard_message(degrees, "degrees", "degree guard", DEGREE_GUARD))
    # product yields the degrees in lexicographic order, as canonical bundles sort them.
    flags = {}
    for a in product(range(-bound, bound + 1), repeat=shape.s):
        E = LineBundleSum(shape, ((a, 1),))
        flags[a] = (hypothesis(E, r), conclusion(E, r))
    both = multisets(sum(h and c for h, c in flags.values()))
    hyp_only = multisets(sum(h for h, _ in flags.values())) - both
    concl_only = multisets(sum(c for _, c in flags.values())) - both
    listed = hyp_only + concl_only
    if listed > LISTING_GUARD:
        raise AuditGuardError(f"{listed} mismatch rows exceed the listing guard of {LISTING_GUARD}")
    mismatches = []
    if listed:
        # Bit 1 is the hypothesis, bit 2 the conclusion, and a bundle's mask is the AND of its
        # degrees': 1 or 2 on a mismatch.  A degree where neither holds is in no mismatch.
        mask = {a: h + 2 * c for a, (h, c) in flags.items() if h or c}
        for rho in range(1, max_rank + 1):
            for combo in combinations_with_replacement(mask, rho):
                m = reduce(and_, map(mask.__getitem__, combo))
                if m == 1 or m == 2:
                    # a sorted combo merges into canonical summands by counting its runs
                    summands = tuple((a, len(list(run))) for a, run in groupby(combo))
                    mismatches.append((_canonical(shape, summands), m == 1, m == 2))
    neither = candidates - both - hyp_only - concl_only
    return AuditReport(candidates, both, hyp_only, concl_only, neither, tuple(mismatches))
