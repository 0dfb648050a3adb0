"""Splitting-criterion checkers and the enumeration auditor."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    AuditGuardError,
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

from support import audit_oracle, bundles_st, criterion_sides


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


def test_audit_jobs_merge_identical():
    a = desk_scale_audit((2, 2), 1, 2, "thm12", jobs=1)
    b = desk_scale_audit((2, 2), 1, 2, "thm12", jobs=2)
    assert a == b


def test_audit_json_shape():
    doc = desk_scale_audit((2, 2), 1, 1, "thm12").to_json()
    assert list(doc) == ["total", "both", "hyp_only", "concl_only", "neither",
                         "mismatches"]
    assert doc["total"] == 9 and doc["mismatches"] == []


def test_audit_guard():
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((2, 2), 30, 3, "thm12")
    assert e.value.code == "E_GUARD"


def test_audit_listing_guard_refuses_before_building_mismatches(monkeypatch):
    import multicoh.criteria as criteria

    built = []

    def counting(shape, summands):
        built.append(len(summands))
        return LineBundleSum(shape, summands)

    monkeypatch.setattr(criteria, "LineBundleSum", counting)
    # 6,843,879 candidates, under AUDIT_GUARD, but 956,790 hyp_only rows to list.
    with pytest.raises(AuditGuardError) as e:
        desk_scale_audit((1, 1, 1), 3, 3, "lemma14")
    assert e.value.code == "E_GUARD"
    assert str(e.value) == (
        f"956790 mismatch rows exceed the listing guard of {criteria.LISTING_GUARD}"
    )
    assert built == [1] * 7 ** 3  # one line bundle per degree, no mismatch bundle


def test_audit_usage_validation():
    with pytest.raises(InputError):
        desk_scale_audit((2, 2), 1, 1, "thm12", r=(1, 1))
    with pytest.raises(InputError):
        desk_scale_audit((2, 2), 1, 1, "thm13")
    with pytest.raises(InputError):
        desk_scale_audit((2, 2), 1, 1, "nope")
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
    + [("lemma14", (1, 1, 1), 2, 2, None), ("lemma14", (1, 1), 3, 3, None)],
)
def test_audit_matches_brute_force_oracle(criterion, shape, bound, max_rank, r):
    report = desk_scale_audit(shape, bound, max_rank, criterion, r=r)
    assert report == audit_oracle(shape, bound, max_rank, criterion, r)
    if (criterion, shape) == ("lemma14", (1, 1, 1)):
        assert report.hyp_only == len(report.mismatches) == 3105


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
