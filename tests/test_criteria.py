"""Splitting-criterion checkers and the enumeration auditor."""

import hashlib
import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    AuditGuardError,
    AuditReport,
    HypothesisDomainError,
    InputError,
    LineBundleSum,
    Shape,
    admissible_tuples,
    desk_scale_audit,
    exceptional_tuples,
    is_admissible,
    lemma14_check,
    lemma14_conclusion_match,
    line_bundle,
    miyazaki_violations,
    nonvanishing_twist_intervals,
    sum_cohomology_dim,
    thm12_conclusion_match,
    thm12_violations,
    thm13_conclusion_match,
    thm13_violations,
    twist,
)

from support import (
    audit_oracle,
    bundles_st,
    criterion_rows_oracle,
    criterion_sides,
    degree_coord,
    forbid_diagonal_join,
    lemma14_rows_oracle,
    shapes_st,
    split_form_oracle,
)


def bundle(shape, *degrees):
    E = line_bundle(shape, degrees[0])
    for d in degrees[1:]:
        E = E + line_bundle(shape, d)
    return E


# ------------------------------------------------------------ admissible region

def test_admissible_region_bounds():
    shape = Shape((2, 2))
    tuples = admissible_tuples(shape)
    assert tuples == tuple(sorted(tuples))
    for i, j in tuples:
        assert 1 <= i <= 3
        assert -i <= sum(j) <= 0
        assert all(-n <= x <= 0 for x, n in zip(j, (2, 2)))
    assert all(is_admissible(shape, i, j) for i, j in tuples)
    assert not is_admissible(shape, 0, (0, 0))
    assert not is_admissible(shape, 4, (0, 0))
    assert not is_admissible(shape, 2, (-3, 0))
    assert not is_admissible(shape, 1, (-1, -1))


def test_admissible_region_count_square():
    # i=1: sum j in {-1,0}: 3 vectors; i=2: 6; i=3: 8 (sum >= -3 within the box)
    assert len(admissible_tuples(Shape((2, 2)))) == 3 + 6 + 8


# ------------------------------------------------------------- exceptional set

def test_exceptional_set_two_factor_anchor():
    got = exceptional_tuples(Shape((2, 2)), (2, 2))
    want = {
        (2, (-2, 0)),
        (2, (-1, 0)),
        (2, (0, -2)),
        (2, (0, -1)),
    }
    assert got == want


def test_exceptional_set_anchor_other_dims():
    # factor-0 exceptions land at i = total - n_0, paired with deep twists
    # on the OTHER axis; matches the published two-factor list
    got = exceptional_tuples(Shape((2, 3)), (2, 2))
    want = {
        (3, (0, -3)),
        (3, (0, -2)),
        (2, (-2, 0)),
        (2, (-1, 0)),
    }
    assert got == want


def test_exceptional_set_caps_zero_is_empty():
    assert exceptional_tuples(Shape((2, 2)), (0, 0)) == frozenset()


def test_exceptional_set_monotone_in_caps():
    shape = Shape((2, 2))
    prev = frozenset()
    for c in range(0, 3):
        cur = exceptional_tuples(shape, (c, c))
        assert prev <= cur
        prev = cur


def test_exceptional_tuples_are_exactly_allowed_form_hits():
    # the exempted tuples must be exactly where the allowed summands
    # O(c*e_k), 1 <= c <= cap_k, have cohomology somewhere on the
    # diagonal ray through the region point
    shape = Shape((2, 2, 2))
    caps = (2, 1, 2)
    hits = set()
    for k, cap in enumerate(caps):
        for c in range(1, cap + 1):
            d = tuple(c if m == k else 0 for m in range(3))
            E = line_bundle(shape, d)
            for i, j in admissible_tuples(shape):
                if not nonvanishing_twist_intervals(E, j, i).is_empty:
                    hits.add((i, j))
    assert exceptional_tuples(shape, caps) == hits


# ------------------------------------------------- criterion rows by scanning

@st.composite
def capped_cases_st(draw):
    """thm12 or thm13, its caps, and a bundle of rank 1-3 on up to three factors."""
    criterion = draw(st.sampled_from(["thm12", "thm13"]))
    low = 2 if criterion == "thm12" else 1
    dims = tuple(draw(st.lists(st.integers(low, 3), min_size=1, max_size=3)))
    if criterion == "thm12":
        caps = (2,) * len(dims)
    else:
        caps = tuple(draw(st.integers(0, n)) for n in dims)
    degrees = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * len(dims)), min_size=1, max_size=3))
    return criterion, caps, bundle(dims, *degrees)


@settings(max_examples=150, deadline=None)
@given(capped_cases_st())
def test_criterion_rows_match_admissible_scan(case):
    criterion, caps, E = case
    report = thm12_violations(E) if criterion == "thm12" else thm13_violations(E, caps)
    assert report.rows == criterion_rows_oracle(E, caps)


def test_criterion_rows_reach_both_ends_of_the_window():
    # a summand O(a) can only have 0 < i < dim X at diagonal twists in [-max a, -min a - 1]
    for dims, a in [((2, 2), (0, 5)), ((2, 2), (2, 0)), ((2, 2, 2), (0, 4, -3))]:
        rows = thm13_violations(line_bundle(dims, a), (0,) * len(dims)).rows
        assert rows == criterion_rows_oracle(line_bundle(dims, a), (0,) * len(dims))
        taus = [t for _, _, t, _ in rows]
        assert (min(taus), max(taus)) == (-max(a), -min(a) - 1)


# --------------------------------------------------------------- thm12 checker

def test_thm12_empty_example():
    E = bundle((2, 2), (0, 0), (0, 1), (2, 0))
    assert thm12_violations(E).empty


def test_thm12_violation_rows():
    rows = thm12_violations(line_bundle([2, 2], (0, 3))).rows
    assert (2, (-1, -1), -2, 1) in rows
    assert rows == ((2, (-1, -1), -2, 1), (2, (0, 0), -3, 1))
    for i, j, t, dim in rows:
        d = tuple(x + t for x in j)
        assert sum_cohomology_dim(line_bundle([2, 2], (0, 3)), d, i) == dim > 0


def test_thm12_needs_big_factors():
    with pytest.raises(HypothesisDomainError) as e:
        thm12_violations(line_bundle([1, 2], (0, 0)))
    assert e.value.code == "E_DOMAIN"


@settings(max_examples=25, deadline=None)
@given(bundles_st(max_rank=2), st.integers(-3, 3))
def test_thm12_diagonal_twist_invariance(E, c):
    if any(n < 2 for n in E.shape.dims):
        return
    shifted = twist(E, (c,) * E.shape.s)
    assert thm12_violations(E).empty == thm12_violations(shifted).empty


def test_thm12_match_examples():
    E = bundle((2, 2), (1, 1), (1, 3), (3, 1))
    form = thm12_conclusion_match(E)
    assert form.matched
    assert form.assignment == (
        ((1, 1), 1, None, 0),
        ((1, 3), 1, 1, 2),
        ((3, 1), 1, 0, 2),
    )
    bad = thm12_conclusion_match(line_bundle([2, 2], (0, 3)))
    assert not bad.matched and bad.offender == (0, 3)
    assert not thm12_conclusion_match(line_bundle([2, 2, 2], (1, 2, 2))).matched


def test_thm12_match_diagonal_and_rank_one():
    assert thm12_conclusion_match(line_bundle([2, 2], (-4, -4))).matched
    assert thm12_conclusion_match(line_bundle([3], (17,))).matched


# --------------------------------------------------------------- thm13 checker

def test_thm13_examples():
    E = bundle((2, 2), (0, 0), (0, 1))
    assert thm13_violations(E, (1, 1)).empty
    assert not thm13_violations(line_bundle([2, 2], (0, 2)), (1, 1)).empty


def test_thm13_r_validation():
    E = line_bundle([2, 2], (0, 0))
    for bad in [(3, 0), (0, -1), (1,)]:
        with pytest.raises(InputError):
            thm13_violations(E, bad)


def test_thm13_full_caps_equal_thm12():
    for a in itertools.product(range(-2, 3), repeat=2):
        E = line_bundle([2, 2], a)
        assert thm13_violations(E, (2, 2)).rows == thm12_violations(E).rows


@settings(max_examples=25, deadline=None)
@given(bundles_st(max_rank=2))
def test_thm13_reports_shrink_with_r(E):
    if any(n < 2 for n in E.shape.dims):
        return
    full = set(thm13_violations(E, tuple(E.shape.dims)).rows)
    none = set(thm13_violations(E, (0,) * E.shape.s).rows)
    assert full <= none


def test_thm13_match_examples():
    form = thm13_conclusion_match(line_bundle([2, 2], (2, 1)), (1, 1))
    assert form.matched and form.assignment == (((2, 1), 1, 0, 1),)
    assert not thm13_conclusion_match(line_bundle([2, 2], (2, 0)), (1, 2)).matched
    for a in itertools.product(range(-3, 4), repeat=2):
        E = line_bundle([2, 2], a)
        assert (
            thm13_conclusion_match(E, (2, 2)).matched
            == thm12_conclusion_match(E).matched
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_forms_match_the_oracle(data):
    """thm13_conclusion_match against split_form_oracle, on degrees drawn near the split
    forms l*(1,...,1) + c*e_k (c from -1 to n_k + 1) and at random, under random caps."""
    dims = data.draw(shapes_st, label="dims")
    caps = tuple(data.draw(st.integers(0, n), label="cap") for n in dims)
    near = st.tuples(degree_coord, st.integers(0, len(dims) - 1), st.integers(-1, max(dims) + 1))
    degrees = data.draw(st.lists(st.one_of(
        near.map(lambda f: tuple(f[0] + f[2] * (i == f[1]) for i in range(len(dims)))),
        st.tuples(*[degree_coord] * len(dims))), min_size=1, max_size=3), label="degrees")
    form = thm13_conclusion_match(bundle(dims, *degrees), caps)
    want = [(degree, split_form_oracle(degree, caps)) for degree in sorted(set(degrees))]
    offenders = [degree for degree, found in want if found is None]
    assert form.matched == (not offenders)
    assert form.offender == (offenders[0] if offenders else None)
    assert form.assignment == (() if offenders else tuple((d,) + f for d, f in want))


# -------------------------------------------------------------------- lemma14

def test_lemma14_small_gap_passes():
    for u in itertools.product(range(-2, 3), repeat=2):
        if abs(u[0] - u[1]) <= 1:
            assert lemma14_check(line_bundle([1, 1], u)).conditions_hold


def test_lemma14_gap_two_fails():
    report = lemma14_check(line_bundle([1, 1], (0, 2)))
    assert not report.conditions_hold
    assert ("b", 1, (0, 0), -2, 1) in report.witnesses
    assert report.vacuous_degrees == (3,)


def test_lemma14_diagonal_always_passes():
    for c in range(-3, 4):
        assert lemma14_check(line_bundle([2, 2], (c, c))).conditions_hold
        assert lemma14_check(line_bundle([1, 1, 1], (c, c, c))).conditions_hold


def test_lemma14_shape_domain():
    for shape, d in [((1, 2), (0, 0)), ((2,), (0,)), ((1,), (0,))]:
        with pytest.raises(HypothesisDomainError):
            lemma14_check(line_bundle(shape, d))


def test_lemma14_match():
    assert lemma14_conclusion_match(line_bundle([2, 2], (0, 2))) == (True, None)
    ok, offender = lemma14_conclusion_match(line_bundle([2, 2], (0, 3)))
    assert not ok and offender == (0, 3)
    E = bundle((1, 1), (0, 1), (5, 4))
    assert lemma14_conclusion_match(E)[0]
    assert not lemma14_conclusion_match(E + line_bundle([1, 1], (0, 2)))[0]


@st.composite
def lemma14_cases_st(draw):
    """A bundle of rank 1-3, multiplicities up to 3, on (P^n)^s with n <= 3 and s <= 3."""
    n = draw(st.integers(1, 3))
    s = draw(st.integers(2, 3 if n > 1 else 4))
    summands = draw(st.lists(st.tuples(st.tuples(*[st.integers(-6, 6)] * s), st.integers(1, 3)),
                             min_size=1, max_size=3))
    return LineBundleSum((n,) * s, tuple(summands))


@settings(max_examples=150, deadline=None)
@given(lemma14_cases_st())
def test_lemma14_witnesses_match_scan(E):
    report = lemma14_check(E)
    assert report.witnesses == lemma14_rows_oracle(E)
    assert report.conditions_hold == (not report.witnesses)
    assert report.vacuous_degrees == (E.shape.total_dim + 1,)


def test_lemma14_witness_dims_check_out():
    E = bundle((1, 1), (0, 2), (1, 1))
    report = lemma14_check(E)
    for cond, t, j, tau, dim in report.witnesses:
        d = tuple(x + tau for x in j)
        assert sum_cohomology_dim(E, d, t) == dim > 0


# ------------------------------------------------------------------- miyazaki

def test_miyazaki_dispatch():
    E = bundle((2, 2), (0, 0), (0, 1))
    assert miyazaki_violations(E).rows == thm12_violations(E).rows
    assert miyazaki_violations(E, (1, 1)).rows == thm13_violations(E, (1, 1)).rows
    with pytest.raises(HypothesisDomainError):
        miyazaki_violations(line_bundle([2, 2, 2], (0, 0, 0)))


# ----------------------------------------------------------------------- audit

def test_audit_square_rank_one():
    report = desk_scale_audit((2, 2), 2, 1, "thm12")
    assert report.total == 25
    assert report.clean and not report.mismatches


def test_audit_square_rank_two_counts():
    report = desk_scale_audit((2, 2), 2, 2, "thm12")
    assert (report.total, report.both, report.hyp_only, report.concl_only,
            report.neither) == (350, 209, 0, 0, 141)
    assert report.clean


def test_audit_lemma14_line_square():
    report = desk_scale_audit((1, 1), 2, 1, "lemma14")
    assert report.clean and report.total == 25


def test_audit_json_shape():
    doc = desk_scale_audit((2, 2), 1, 1, "thm12").to_json()
    assert list(doc) == ["total", "both", "hyp_only", "concl_only", "neither",
                         "mismatches"]
    assert doc["total"] == 9 and doc["mismatches"] == []


def test_audit_guard():
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((2, 2), 30, 3, "thm12")
    assert e.value.code == "E_GUARD"


@pytest.mark.parametrize(
    "dims, bound, max_rank",
    [((2, 2), 30, 3), ((2, 2, 2), 8, 3), ((2,), 11, 23), ((2,), 12, 24), ((2,), 12, 30),
     ((2, 2), 2, 40), ((2,), 400, 3000)],
)
def test_audit_guard_message_counts_every_rank(dims, bound, max_rank):
    # the closed form must print what summing over every rank prints, also past 24 ranks
    n = (2 * bound + 1) ** len(dims)
    count = sum(comb(n + rho - 1, rho) for rho in range(1, max_rank + 1))
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit(dims, bound, max_rank, "thm12")
    assert str(e.value) == f"{count} candidate bundles exceed the desk-scale guard of 10000000"


def test_audit_closed_form_count_at_the_guard():
    # one degree and 10^7 ranks: exactly AUDIT_GUARD candidates, accepted without a loop over ranks
    report = desk_scale_audit((2,), 0, 10**7, "thm12")
    assert (report.total, report.both, report.mismatches) == (10**7, 10**7, ())
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((2,), 0, 10**7 + 1, "thm12")
    assert str(e.value) == "10000001 candidate bundles exceed the desk-scale guard of 10000000"


def test_audit_listing_guard_refuses_before_building_mismatches(monkeypatch):
    import multicoh.criteria as criteria

    built, trusted = [], []

    def counting(shape, summands):
        built.append(len(summands))
        return LineBundleSum(shape, summands)

    def counting_trusted(shape, summands):
        trusted.append(len(summands))
        return criteria_canonical(shape, summands)

    criteria_canonical = criteria._canonical
    monkeypatch.setattr(criteria, "LineBundleSum", counting)
    monkeypatch.setattr(criteria, "_canonical", counting_trusted)
    # 6,843,879 candidates, under AUDIT_GUARD, but 956,790 hyp_only rows to list.
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((1, 1, 1), 3, 3, "lemma14")
    assert e.value.code == "E_GUARD"
    assert str(e.value) == (
        f"956790 mismatch rows exceed the listing guard of {criteria.LISTING_GUARD}"
    )
    assert built == []  # the classes are decided on their degrees, with no bundle built
    assert trusted == []  # and no mismatch bundle


def test_audit_degree_guard_refuses_before_evaluating(monkeypatch):
    import multicoh.criteria as criteria

    made = []
    domain, *sides = criteria._CRITERIA["thm13"]
    monkeypatch.setitem(criteria._CRITERIA, "thm13", (domain, *[
        lambda shape, r, make=make: made.append(shape) or make(shape, r) for make in sides]))
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((3, 1, 2), 30, 1, "thm13", r=(1, 0, 0))
    assert str(e.value) == "226981 degrees exceed the degree guard of 10000"
    assert made == []  # neither side's test is made, so no degree is evaluated
    assert desk_scale_audit((3, 1, 2), 1, 1, "thm13", r=(1, 0, 0)).total == 27
    assert made == [Shape((3, 1, 2))] * 2  # and past the guards, each side's once
    # the candidate guard speaks first when both apply
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((1, 1, 1), 30, 2, "lemma14")
    assert str(e.value).endswith("candidate bundles exceed the desk-scale guard of 10000000")
    # boundary: a box of exactly DEGREE_GUARD degrees is evaluated
    monkeypatch.setattr(criteria, "DEGREE_GUARD", 9)
    assert desk_scale_audit((2, 2), 1, 1, "thm12").total == 9
    monkeypatch.setattr(criteria, "DEGREE_GUARD", 8)
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((2, 2), 1, 1, "thm12")
    assert str(e.value) == "9 degrees exceed the degree guard of 8"


@pytest.mark.parametrize("criterion, shape, bound, max_rank", [
    ("lemma14", (1, 1, 1), 1, 3), ("lemma14", (1, 1, 1), 2, 2), ("lemma14", (2, 2, 2), 2, 2),
    ("lemma14", (1, 1, 1, 1), 1, 2),
])
def test_audit_listing_builds_canonical_bundles(criterion, shape, bound, max_rank):
    # mismatches come from the trusted constructor: each must be what the checked one builds
    report = desk_scale_audit(shape, bound, max_rank, criterion)
    assert report.mismatches and any(m > 1 for E, _, _ in report.mismatches for _, m in E.summands)
    for E, _, _ in report.mismatches:
        checked = LineBundleSum(shape, tuple((a, 1) for a in E.degrees()))
        assert E == checked and hash(E) == hash(checked)
        assert type(E.shape) is Shape and E.summands == checked.summands


def test_audit_listing_with_every_degree_class(monkeypatch):
    # The forward direction holds for every real criterion, so no degree has the conclusion
    # alone; a stand-in on P^1 x P^1, shift-invariant as _CRITERIA requires, puts degrees in
    # all four classes, and mixes of the two one-sided classes (AND 0) must be counted and
    # listed as neither.
    import multicoh.criteria as criteria

    def hyp(a):
        a1, a2 = a
        return a2 - a1 <= 0

    def concl(a):
        a1, a2 = a
        return 0 <= a2 - a1 <= 1

    monkeypatch.setitem(criteria._CRITERIA, "stand-in", (
        lambda shape, r: r, lambda shape, r: hyp, lambda shape, r: concl))
    degrees = list(itertools.product(range(-2, 3), repeat=2))
    cells, expected = [0, 0, 0, 0], []
    for rho in range(1, 4):
        for combo in itertools.combinations_with_replacement(degrees, rho):
            E = LineBundleSum((1, 1), tuple((a, 1) for a in combo))
            h, c = all(a2 - a1 <= 0 for a1, a2 in combo), all(0 <= a2 - a1 <= 1 for a1, a2 in combo)
            cells[2 * (not h) + (not c)] += 1
            if h != c:
                expected.append((E, h, c))
    report = desk_scale_audit((1, 1), 2, 3, "stand-in")
    assert [report.both, report.hyp_only, report.concl_only, report.neither] == cells
    assert report.mismatches == tuple(expected)
    assert {(h, c) for _, h, c in expected} == {(True, False), (False, True)}


def test_check_row_guard(monkeypatch):
    import multicoh.criteria as criteria

    E = bundle((2, 2), (0, 3))
    assert len(thm12_violations(E).rows) == 2
    monkeypatch.setattr(criteria, "LISTING_GUARD", 2)
    assert len(thm12_violations(E).rows) == 2
    monkeypatch.setattr(criteria, "LISTING_GUARD", 1)
    with pytest.raises(InputError) as e:
        thm12_violations(E)
    assert (e.value.code, str(e.value)) == ("E_GUARD", "2 rows exceed the listing guard of 1")


@pytest.mark.parametrize("check", [
    thm12_violations, lambda E: thm13_violations(E, (1, 2)), lemma14_check,
], ids=["thm12", "thm13", "lemma14"])
@pytest.mark.parametrize("gap", [10**9, -(10**9)])
def test_check_row_guard_counts_before_expanding(monkeypatch, check, gap):
    # a gap of 10^9 puts about 10^9 rows on a ray; refused before any row's dimension
    import multicoh.criteria as criteria

    def no_dims(*args):
        raise AssertionError("a row's dimension was computed")

    monkeypatch.setattr(criteria, "_line_cohomology", no_dims)
    with pytest.raises(InputError) as e:
        check(bundle((2, 2), (0, 0), (0, gap)))
    assert e.value.code == "E_GUARD"
    assert str(e.value).endswith(" rows exceed the listing guard of 100000")


def test_violation_report_to_rows():
    assert thm12_violations(bundle((2, 2), (0, 3))).to_rows() == [
        {"i": 2, "j": [-1, -1], "t": -2, "dim": 1}, {"i": 2, "j": [0, 0], "t": -3, "dim": 1}]


@st.composite
def far_cases_st(draw):
    """thm12, thm13 or lemma14 with caps, and a bundle of rank 1-2 with multiplicities up to 3
    whose coordinates may lie about 10^3 apart, on a shape in the criterion's domain."""
    criterion = draw(st.sampled_from(["thm12", "thm13", "lemma14"]))
    if criterion == "lemma14":
        dims = (draw(st.integers(1, 2)),) * draw(st.integers(2, 3))
    else:
        dims = tuple(draw(st.integers(2 if criterion == "thm12" else 1, 3)) for _ in range(2))
    caps = tuple(2 if criterion == "thm12" else draw(st.integers(0, n)) for n in dims)
    coord = st.integers(-6, 6) | st.integers(-1000, 1000)
    summands = draw(st.lists(st.tuples(st.tuples(*[coord] * len(dims)), st.integers(1, 3)),
                             min_size=1, max_size=2))
    return criterion, caps, LineBundleSum(dims, tuple(summands))


@settings(max_examples=60, deadline=None)
@given(far_cases_st())
def test_check_row_guard_counts_each_summand_rows(case):
    # the count refused is the sum over summands of the rows of each summand's own line bundle
    import multicoh.criteria as criteria

    criterion, caps, E = case
    check = {"thm12": thm12_violations, "thm13": lambda E: thm13_violations(E, caps),
             "lemma14": lemma14_check}[criterion]
    count = 0
    for degree, _ in E.summands:
        O = line_bundle(E.shape, degree)
        count += len(lemma14_rows_oracle(O) if criterion == "lemma14"
                     else criterion_rows_oracle(O, caps))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(criteria, "LISTING_GUARD", count)
        check(E)
        if count:
            m.setattr(criteria, "LISTING_GUARD", count - 1)
            with pytest.raises(InputError) as e:
                check(E)
            assert str(e.value) == f"{count} rows exceed the listing guard of {count - 1}"


def test_check_jbox_guard_refuses_before_any_join(monkeypatch):
    import multicoh.criteria as criteria
    from multicoh.core import _diagonal_plan

    def no_keep(*args):
        raise AssertionError("a twist j was joined")

    monkeypatch.setattr(criteria, "_is_exceptional", no_keep)
    start = time.perf_counter()
    with pytest.raises(InputError) as e:
        thm12_violations(line_bundle((2,) * 20, (0, 5) * 10))
    assert time.perf_counter() - start < 1
    assert (e.value.code, str(e.value)) == (
        "E_GUARD", "3486784401 twists j exceed the j-box guard of 10000")
    # a box whose size is not worked out: more than COUNT_BITS bits of factor dimensions
    with pytest.raises(InputError) as e:
        thm13_violations(line_bundle((2**300_000,) * 2, (0, 0)), (0, 0))
    assert str(e.value) == "more than 10000 twists j exceed the j-box guard of 10000"
    # the plan sizes its box before it multiplies out the box_k of its entry count
    s = 2**19
    start = time.perf_counter()
    with pytest.raises(InputError) as e:
        _diagonal_plan((1,) * s, [-1] * s)
    assert time.perf_counter() - start < 1
    assert str(e.value) == "more than 10000 twists j exceed the j-box guard of 10000"
    # lemma14's box is the one twist j = 0 on any number of factors: degree 0 has no phase
    s = criteria.COUNT_BITS + 1
    start = time.perf_counter()
    report = lemma14_check(line_bundle((1,) * s, (0,) * s))
    assert time.perf_counter() - start < 1
    assert report.conditions_hold and report.witnesses == ()
    # far apart, a phase per factor: 1999 phases of 2000 * 2001 / 2 j entries are refused
    forbid_diagonal_join(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(InputError) as e:
        lemma14_check(line_bundle((2,) * 2000, range(0, -8000, -4)))
    assert time.perf_counter() - start < 1
    assert (e.value.code, str(e.value)) == (
        "E_GUARD", "3999999000 j entries exceed the diagonal-join guard of 30000000")


def test_check_join_work_does_not_grow_with_the_gaps(monkeypatch):
    # (4999, 1) has 10^4 twists j, and its first factor changes state at about 10^4 diagonal
    # twists; on two factors there is one phase, so each j is filtered at most once
    import multicoh.criteria as criteria

    calls = []
    real = criteria._is_exceptional
    monkeypatch.setattr(criteria, "_is_exceptional", lambda *args: calls.append(1) or real(*args))
    start = time.perf_counter()
    with pytest.raises(InputError) as e:
        thm13_violations(line_bundle((4999, 1), (0, 10**6)), (0, 0))
    assert str(e.value) == "1000000 rows exceed the listing guard of 100000"
    assert thm13_violations(line_bundle((4999, 1), (10**6, 0)), (4999, 1)).empty
    assert time.perf_counter() - start < 1
    assert len(calls) <= 2 * 10**4


def test_check_rows_of_a_large_factor_step_their_dims():
    # 14,997 rows whose dims have up to 3000 digits: each run computes its binomials once
    E = line_bundle((4999, 1), (0, -5000))
    start = time.perf_counter()
    rows = thm13_violations(E, (0, 0)).rows
    assert time.perf_counter() - start < 3
    assert len(rows) == 14997
    for i, j, tau, dim in rows[:3] + rows[7000:7003] + rows[-3:]:
        assert dim == sum_cohomology_dim(E, [x + tau for x in j], i)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_hit_dims_match_line_cohomology(data):
    """Dimensions stepped along runs of up to about 60 diagonal twists, on sections and
    top axes alike, against _line_cohomology summed over the summands at each row, in
    sorted rows."""
    import multicoh.criteria as criteria
    from multicoh.core import _diagonal_plan, _line_cohomology

    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3), label="dims"))
    coord = st.integers(-30, 30)
    degrees = data.draw(st.lists(st.tuples(*[coord] * len(dims)), min_size=1, max_size=3))
    E = bundle(dims, *degrees)
    lows = [data.draw(st.integers(-n, 0), label="low") for n in dims]
    rows = criteria._box_hits(E, _diagonal_plan(dims, lows), lambda i, j: True)
    assert rows == sorted(rows)
    for i, j, tau, dim in rows:
        want = 0
        for degree, mult in E.summands:
            q, d = _line_cohomology(dims, [a + x + tau for a, x in zip(degree, j)])
            want += mult * d if q == i else 0
        assert dim == want > 0, (i, j, tau)


def test_check_jbox_guard_boundary(monkeypatch):
    import multicoh.core as core

    E = line_bundle((2, 2, 2, 2), (0, 1, 2, 3))
    rows = thm12_violations(E).rows
    monkeypatch.setattr(core, "JBOX_GUARD", 81)
    assert thm12_violations(E).rows == rows
    monkeypatch.setattr(core, "JBOX_GUARD", 80)
    with pytest.raises(InputError) as e:
        thm12_violations(E)
    assert str(e.value) == "81 twists j exceed the j-box guard of 80"
    # lemma14 joins the zero pattern alone, on any (P^n)^s
    monkeypatch.setattr(core, "JBOX_GUARD", 1)
    assert lemma14_check(line_bundle((1,) * 20, (0,) + (2,) * 19)).witnesses
    assert lemma14_check(line_bundle((3,) * 20, (0,) + (4,) * 19)).witnesses
    monkeypatch.setattr(core, "JBOX_GUARD", 0)
    with pytest.raises(InputError) as e:
        lemma14_check(line_bundle((2, 2), (0, 2)))
    assert str(e.value) == "1 twists j exceed the j-box guard of 0"


def hashed_sides(seed):
    """(hypothesis, conclusion) of a degree a, two bits of a hash of its diagonal class key
    a - min(a): shift-invariant, as _CRITERIA requires, and free to take all four values."""
    def sides(a):
        bits = hashlib.sha256(repr((seed, tuple(x - min(a) for x in a))).encode()).digest()[0]
        return bool(bits & 1), bool(bits & 2)
    return sides


@pytest.mark.parametrize("shape, bound, max_rank, seed", [
    ((1, 1), 2, 4, 0), ((1, 1), 2, 4, 1), ((1, 1, 1), 1, 3, 2), ((3, 1), 1, 4, 3),
    ((1, 2), 2, 3, 5),
])
def test_audit_listing_matches_brute_force_on_a_hashed_criterion(monkeypatch, shape, bound,
                                                                  max_rank, seed):
    # Real criteria give no degree the conclusion alone in the tested boxes, so only here are
    # concl_only rows listed, and listed in one order with hyp_only rows.
    import multicoh.criteria as criteria

    sides = hashed_sides(seed)
    monkeypatch.setitem(criteria._CRITERIA, "hashed", (
        lambda shape, r: r, lambda shape, r: lambda a: sides(a)[0],
        lambda shape, r: lambda a: sides(a)[1]))
    built, trusted = [], criteria._canonical
    monkeypatch.setattr(criteria, "_canonical", lambda *args: built.append(args) or trusted(*args))
    degrees = sorted(itertools.product(range(-bound, bound + 1), repeat=len(shape)))
    flags = {a: sides(a) for a in degrees}
    assert len(set(flags.values())) == 4
    cells, expected = [0, 0, 0, 0], []
    for rho in range(1, max_rank + 1):
        for combo in itertools.combinations_with_replacement(degrees, rho):
            h, c = all(flags[a][0] for a in combo), all(flags[a][1] for a in combo)
            cells[2 * (not h) + (not c)] += 1
            if h != c:
                summands = tuple((a, len(list(run))) for a, run in itertools.groupby(combo))
                expected.append((LineBundleSum(shape, summands), h, c))
    report = desk_scale_audit(shape, bound, max_rank, "hashed")
    assert report == AuditReport(sum(cells), *cells, mismatches=tuple(expected))
    assert len(built) == len(report.mismatches)  # one trusted build per listed row, no more
    assert {(h, c) for _, h, c in report.mismatches} == {(True, False), (False, True)}
    assert any(m > 1 for E, _, _ in report.mismatches for _, m in E.summands)


def test_audit_listing_is_linear_in_its_rows(monkeypatch):
    import multicoh.criteria as criteria

    def corner_off(a):  # only the class of the corner (7, -7) on P^2 x P^2 loses the conclusion
        a1, a2 = a
        return a1 - a2 != 14

    monkeypatch.setitem(criteria._CRITERIA, "hyp-only", (
        lambda shape, r: r, lambda shape, r: lambda a: True, lambda shape, r: lambda a: False))
    monkeypatch.setitem(criteria._CRITERIA, "corner-off", (
        lambda shape, r: r, lambda shape, r: lambda a: True, lambda shape, r: corner_off))
    # one degree on the hypothesis side alone: 20,000 rows O(0)^rho, each one more of the last
    start = time.perf_counter()
    report = desk_scale_audit((2,), 0, 20000, "hyp-only")
    assert time.perf_counter() - start < 2
    rows = tuple((LineBundleSum((2,), (((0,), rho),)), True, False) for rho in range(1, 20001))
    assert report == AuditReport(20000, 0, 20000, 0, 0, mismatches=rows)
    # 25,651 rows among 1,949,475 candidates: a prefix where both sides hold is extended only
    # while a one-sided degree can follow, so the walk never visits the candidates
    start = time.perf_counter()
    report = desk_scale_audit((2, 2), 7, 3, "corner-off")
    assert time.perf_counter() - start < 0.6
    assert (report.total, report.hyp_only, len(report.mismatches)) == (1949475, 25651, 25651)
    assert all((7, -7) in E.degrees() for E, _, _ in report.mismatches)


def test_thm13_hypothesis_holds_past_the_caps_on_p3_x_p1():
    """Open discrepancy, pinned as it is.  On P^3 x P^1 at r = (3, 1) the encoded thm13
    hypothesis holds on every O(a) of the box with a_1 - a_2 >= 4, whose excess on the P^3 axis
    passes its cap 3, so the conclusion fails: O(2, -2) has excess 4.  Such a line bundle has
    intermediate cohomology in degree 1 alone, and at these caps every admissible (1, j) is
    exceptional, so no vanishing is asked of it.  Whether the encoded exceptional rule exempts
    more than the paper's theorem, or the theorem asks more of r or n_k, is not settled here;
    a change to a domain or to the exceptional rule must restate this test."""
    report = desk_scale_audit((3, 1), 3, 1, "thm13", r=(3, 1))
    assert (report.total, report.both, report.hyp_only, report.concl_only) == (49, 28, 6, 0)
    degrees = [(1, -3), (2, -3), (2, -2), (3, -3), (3, -2), (3, -1)]
    assert report.mismatches == tuple((line_bundle((3, 1), a), True, False) for a in degrees)
    assert thm13_conclusion_match(line_bundle((3, 1), (2, -2)), (3, 1)).offender == (2, -2)


def test_audit_usage_validation():
    with pytest.raises(InputError):
        desk_scale_audit((2, 2), 1, 1, "thm12", r=(1, 1))
    with pytest.raises(InputError):
        desk_scale_audit((2, 2), 1, 1, "thm13")
    with pytest.raises(InputError) as e:
        desk_scale_audit((2, 2), 1, 1, "x")
    assert (e.value.code, str(e.value)) == ("E_USAGE", "unknown criterion 'x'")
    with pytest.raises(HypothesisDomainError):
        desk_scale_audit((1, 2), 1, 1, "lemma14")
    with pytest.raises(HypothesisDomainError):
        desk_scale_audit((1, 2), 1, 1, "thm12")


def test_audit_totals_match_multiset_count():
    # 9 degrees in [-1,1]^2: multisets of size 1 and 2 -> 9 + 45
    report = desk_scale_audit((2, 2), 1, 2, "thm12")
    assert report.total == 54


@pytest.mark.parametrize(
    "criterion, shape, bound, max_rank, r",
    [("thm12", (2, 2, 2), 1, 3, None)]
    + [("thm13", (2, 3), 1, 2, r) for r in itertools.product(range(3), range(4))]
    + [("lemma14", (1, 1, 1), 2, 2, None), ("lemma14", (1, 1), 3, 3, None)]
    # boxes where one diagonal class holds several degrees, under caps too
    + [("thm13", (2, 3), 2, 1, (1, 2)), ("thm13", (2, 3), 2, 1, (2, 0)),
       ("thm12", (2, 2), 3, 1, None), ("lemma14", (2, 2, 2), 2, 1, None)]
    # mismatch rows with multiplicities, ranks 1-3, from a real criterion
    + [("thm13", (3, 1), 2, 3, (3, 1))],
)
def test_audit_matches_brute_force_oracle(criterion, shape, bound, max_rank, r):
    report = desk_scale_audit(shape, bound, max_rank, criterion, r=r)
    assert report == audit_oracle(shape, bound, max_rank, criterion, r)
    if (criterion, shape) == ("lemma14", (1, 1, 1)):
        assert report.hyp_only == len(report.mismatches) == 3105
    if (criterion, shape) == ("thm13", (3, 1)):
        mults = [max(m for _, m in E.summands) for E, _, _ in report.mismatches]
        assert len(mults) == 210 and sum(m > 1 for m in mults) == 38


@st.composite
def criterion_pairs_st(draw):
    """A criterion, caps where it takes them, and two bundles on a shape in its domain."""
    criterion = draw(st.sampled_from(["thm12", "thm13", "lemma14"]))
    s = draw(st.integers(1, 3))
    if criterion == "lemma14":
        dims = (draw(st.integers(1, 2)),) * max(s, 2)
    else:
        low = 2 if criterion == "thm12" else 1
        dims = tuple(draw(st.integers(low, 3)) for _ in range(s))
    r = tuple(draw(st.integers(0, n)) for n in dims) if criterion == "thm13" else None

    def draw_bundle():
        rank = draw(st.integers(1, 2))
        return bundle(dims, *[tuple(draw(st.integers(-4, 4)) for _ in dims)
                              for _ in range(rank)])

    return criterion, r, draw_bundle(), draw_bundle()


@settings(max_examples=100, deadline=None)
@given(criterion_pairs_st())
def test_criterion_sides_are_additive_over_summands(case):
    # desk_scale_audit classifies summand degrees once on the strength of this identity.
    criterion, r, E, F = case
    hyp_e, concl_e = criterion_sides(E, criterion, r)
    hyp_f, concl_f = criterion_sides(F, criterion, r)
    assert criterion_sides(E + F, criterion, r) == (hyp_e and hyp_f, concl_e and concl_f)


@settings(max_examples=100, deadline=None)
@given(criterion_pairs_st(), st.integers(-10**6, 10**6))
def test_criterion_sides_are_invariant_under_diagonal_shift(case, ell):
    # desk_scale_audit checks one degree per diagonal class on the strength of this identity.
    criterion, r, E, _ = case
    shifted = LineBundleSum(E.shape, tuple((tuple(x + ell for x in a), m) for a, m in E.summands))
    assert criterion_sides(shifted, criterion, r) == criterion_sides(E, criterion, r)


@st.composite
def hypothesis_cases_st(draw):
    """A criterion and a bundle of rank 1-3 on up to three factors of its domain, with
    coordinates near each other or far apart."""
    criterion = draw(st.sampled_from(["thm12", "thm13", "lemma14"]))
    if criterion == "lemma14":
        dims = (draw(st.integers(1, 3)),) * draw(st.integers(2, 3))
    else:
        low = 2 if criterion == "thm12" else 1
        dims = tuple(draw(st.lists(st.integers(low, 3), min_size=1, max_size=3)))
    coord = st.integers(-6, 6) | st.integers(-100, 100)
    degrees = draw(st.lists(st.tuples(*[coord] * len(dims)), min_size=1, max_size=3))
    return criterion, bundle(dims, *degrees)


@settings(max_examples=150, deadline=None)
@given(hypothesis_cases_st())
def test_audit_hypothesis_scan_matches_the_public_check(case):
    # The audit's per-degree test, made once and decided at the first kept run, ANDed over the
    # summands gives the full check's verdict on the sum: the hypothesis is additive.
    import multicoh.criteria as criteria

    criterion, E = case
    domain, make, _ = criteria._CRITERIA[criterion]

    def anded(r):
        test = make(E.shape, domain(E.shape, r))
        return all([test(a) for a, _ in E.summands])

    if criterion == "thm12":
        assert anded(None) == thm12_violations(E).empty
    elif criterion == "lemma14":
        assert anded(None) == lemma14_check(E).conditions_hold
    else:
        for r in itertools.product(*[range(n + 1) for n in E.shape.dims]):
            assert anded(r) == thm13_violations(E, r).empty


def test_audit_hypothesis_scan_stops_at_the_first_kept_run(monkeypatch):
    import multicoh.criteria as criteria

    calls = []
    real = criteria._is_exceptional
    monkeypatch.setattr(criteria, "_is_exceptional", lambda *args: calls.append(1) or real(*args))
    E = line_bundle((2, 2), (0, 8))  # a violating class with many kept runs
    assert len(thm12_violations(E).rows) > 1
    full, calls[:] = len(calls), []
    assert criteria._CRITERIA["thm12"][1](E.shape, (2, 2))((0, 8)) is False
    assert 1 <= len(calls) < full


@pytest.mark.parametrize("criterion, shape, bound, r", [
    ("thm12", (2, 2, 2), 1, None), ("thm12", (2, 2), 3, None), ("thm13", (2, 3), 2, (1, 2)),
    ("lemma14", (1, 1, 1), 2, None), ("lemma14", (3,) * 4, 1, None),
])
def test_audit_checks_each_diagonal_class_once(monkeypatch, criterion, shape, bound, r):
    import multicoh.criteria as criteria

    seen = []
    domain, make, concl = criteria._CRITERIA[criterion]

    def counting(shape, r):
        hyp = make(shape, r)
        return lambda a: seen.append(a) or hyp(a)

    monkeypatch.setitem(criteria._CRITERIA, criterion, (domain, counting, concl))
    desk_scale_audit(shape, bound, 2, criterion, r=r)
    s = len(shape)
    assert len(seen) == (2 * bound + 1) ** s - (2 * bound) ** s
    # each on the degree of its class that comes first in the box, the one with minimum -bound
    assert [min(a) for a in seen] == [-bound] * len(seen)


@pytest.mark.parametrize("criterion, shape, bound, r, classes", [
    ("thm12", (2, 2, 2), 1, None, 19), ("thm13", (2, 3), 1, (1, 2), 5),
    ("lemma14", (1, 1, 1), 2, None, 61),
])
def test_audit_plans_its_box_once(monkeypatch, criterion, shape, bound, r, classes):
    # the j-box guard runs once per audit, on its one plan; the diagonal-join guard once per
    # class, since its count depends on the class's degree
    import multicoh.core as core

    guards, real = [], core._refuse_past
    monkeypatch.setattr(core, "_refuse_past",
                        lambda count, limit, what, guard, *rest: guards.append(guard)
                        or real(count, limit, what, guard, *rest))
    desk_scale_audit(shape, bound, 2, criterion, r=r)
    assert guards.count("j-box guard") == 1
    assert guards.count("diagonal-join guard") == classes == (2 * bound + 1) ** len(shape) - (
        2 * bound) ** len(shape)


def test_audit_refusal_order(monkeypatch):
    # domain, then candidates, then degrees, then the j-box guard, then each class's
    # diagonal-join guard: each case passes every check before the one it trips
    import multicoh.core as core

    def refusal(*args, **kwargs):
        with pytest.raises(InputError) as e:
            desk_scale_audit(*args, **kwargs)
        return e.value.code, str(e.value)

    assert refusal((1, 2), 10**6, 3, "thm12") == (
        "E_DOMAIN", "excess-2 criterion needs every factor of dimension >= 2")
    assert refusal((2, 2), 10**6, 3, "thm12")[1].endswith(
        "candidate bundles exceed the desk-scale guard of 10000000")
    shape, r = (2,) * 13, (0,) * 13
    assert refusal(shape, 1, 1, "thm13", r=r) == (
        "E_GUARD", "1594323 degrees exceed the degree guard of 10000")
    assert refusal(shape, 0, 1, "thm13", r=r) == (
        "E_GUARD", "1594323 twists j exceed the j-box guard of 10000")
    monkeypatch.setattr(core, "DIAGONAL_GUARD", 0)
    assert refusal((2, 3), 1, 2, "thm13", r=(1, 2)) == (
        "E_GUARD", "27 j entries exceed the diagonal-join guard of 0")
    monkeypatch.setattr(core, "JBOX_GUARD", 11)
    assert refusal((2, 3), 1, 2, "thm13", r=(1, 2)) == (
        "E_GUARD", "12 twists j exceed the j-box guard of 11")
