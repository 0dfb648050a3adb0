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

desk_scale_audit cross-tabulates hypothesis against conclusion over every
canonical bundle in a degree box up to a rank cap.  On a direct sum both
sides are ANDs over the summands, so it evaluates each degree once on its
line bundle, counts the 2x2 table with multiset binomials over the four
(hypothesis, conclusion) classes, and builds only the mismatches, which it
reports verbatim.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

from .core import (
    Degree,
    InputError,
    LineBundleSum,
    Shape,
    _as_shape,
    _check_vector,
    _ray_pieces,
    _sum_dim,
    bundle_to_doc,
)

AUDIT_GUARD = 10_000_000
# Mismatch rows an audit may list; each becomes a bundle and a JSON document.
LISTING_GUARD = 100_000


class HypothesisDomainError(InputError):
    """The bundle's shape is outside the criterion's domain."""

    def __init__(self, message: str):
        super().__init__("E_DOMAIN", message)


class AuditGuardError(InputError):
    """The requested enumeration exceeds the desk-scale guard."""

    def __init__(self, message: str):
        super().__init__("E_GUARD", message)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def exceptional_tuples(shape: Shape, caps: tuple[int, ...]) -> frozenset[tuple[int, Degree]]:
    """Admissible tuples where the allowed summand forms have cohomology.

    For axis k with cap_k >= 1 these sit at i = dim X - n_k, at twists j
    with j_l - j_k <= cap_k - n_l - 1 for all l != k.  Empty for an axis
    with cap 0; monotone in the caps.
    """
    dims = shape.dims
    total = shape.total_dim
    out = set()
    for i, j in admissible_tuples(shape):
        for k, cap in enumerate(caps):
            if cap < 1 or i != total - dims[k]:
                continue
            if all(j[l] - j[k] <= cap - dims[l] - 1 for l in range(len(dims)) if l != k):
                out.add((i, j))
                break
    return frozenset(out)


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


def _ray_hits(E: LineBundleSum, j: Degree, degrees) -> list[tuple[int, int, int]]:
    """(t, tau, dim) for every t in degrees and tau with dim H^t(E(j + tau*(1,...,1))) != 0.

    Walks the ray once for all the degrees, which must lie strictly between
    0 and dim X, where every piece of the walk is bounded.  Unordered.
    """
    hits = {
        (t, tau)
        for t, lo, hi in _ray_pieces(E, j)
        if t in degrees
        for tau in range(lo, hi + 1)
    }
    return [(t, tau, _sum_dim(E, [x + tau for x in j], t)) for t, tau in hits]


def _criterion_violations(E: LineBundleSum, caps: tuple[int, ...]) -> ViolationReport:
    shape = E.shape
    skip = exceptional_tuples(shape, caps)
    degrees_on_ray: dict[Degree, list[int]] = {}
    for i, j in admissible_tuples(shape):
        if (i, j) not in skip:
            degrees_on_ray.setdefault(j, []).append(i)
    rows = sorted(
        (i, j, tau, dim)
        for j, degrees in degrees_on_ray.items()
        for i, tau, dim in _ray_hits(E, j, degrees)
    )
    return ViolationReport(shape, tuple(rows))


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

    Witness rows are (condition, t, j, tau, dim) with condition "a" for
    the off-diagonal-degree checks over gap patterns j and "b" for the
    diagonal H^n check.  Degrees above dim X cannot carry sheaf
    cohomology; they are still part of the stated conditions, so they are
    recorded in vacuous_degrees rather than silently dropped.
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

    The j quantifier in (a) is split into gap patterns (normalized to
    max j = 0) times a diagonal ray.  Each ray is walked once for all its
    degrees; the zero pattern's ray also carries degree n, which is (b).
    """
    shape = E.shape
    n = _require_power_shape(shape)
    s = shape.s
    zero = (0,) * s
    off_diagonal = [t for t in range(1, s * n) if t % n]
    witnesses = []
    for g in product(*[range(-n, 1)] * s):
        degrees = off_diagonal + [n] if g == zero else off_diagonal
        if max(g) == 0 and degrees:
            for t, tau, dim in _ray_hits(E, g, degrees):
                witnesses.append(("a" if t % n else "b", t, g, tau, dim))
    witnesses.sort()
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
        return {
            "total": self.total,
            "both": self.both,
            "hyp_only": self.hyp_only,
            "concl_only": self.concl_only,
            "neither": self.neither,
            "mismatches": [
                {"bundle": bundle_to_doc(E), "hypothesis": hyp, "conclusion": concl}
                for E, hyp, concl in self.mismatches
            ],
        }


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
    candidates, and more than 10^5 mismatches before building any of them.
    jobs is accepted for compatibility and has no effect.
    """
    shape = _as_shape(shape)
    if bound < 0 or max_rank < 1:
        raise InputError("E_RANGE", "need bound >= 0 and max_rank >= 1")
    if criterion not in _CRITERIA:
        raise InputError("E_USAGE", f"unknown criterion {criterion!r}")
    domain, hypothesis, conclusion = _CRITERIA[criterion]
    r = domain(shape, r)
    ranks = range(1, max_rank + 1)

    def multisets(n: int) -> int:
        """Multisets of size 1 .. max_rank drawn from n degrees."""
        return sum(comb(n + rho - 1, rho) for rho in ranks)

    candidates = multisets((2 * bound + 1) ** shape.s)
    if candidates > AUDIT_GUARD:
        raise AuditGuardError(
            f"{candidates} candidate bundles exceed the desk-scale guard of {AUDIT_GUARD}"
        )
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
        # A degree where neither side holds makes both false, so it is in no mismatch.
        live = [a for a, (h, c) in flags.items() if h or c]
        for rho in ranks:
            for combo in combinations_with_replacement(live, rho):
                hyp = all(flags[a][0] for a in combo)
                concl = all(flags[a][1] for a in combo)
                if hyp != concl:
                    E = LineBundleSum(shape, tuple((a, 1) for a in combo))
                    mismatches.append((E, hyp, concl))
    neither = candidates - both - hyp_only - concl_only
    return AuditReport(candidates, both, hyp_only, concl_only, neither, tuple(mismatches))
