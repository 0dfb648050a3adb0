"""Regularity layer: 0-regularity, Reg index, global generation, aCM."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    InputError,
    LineBundleSum,
    Shape,
    acm_closed_form,
    is_acm,
    is_globally_generated,
    is_m_regular,
    is_zero_regular,
    line_bundle,
    nonvanishing_twist_intervals,
    regularity_index,
    restrict_factor,
    sum_cohomology_dim,
    twist,
)

from support import bundles_st, degree_coord, kunneth_oracle, scan_window


def zero_regular_brute(E):
    """Every (t, j, dim) of the definition, by degree, from the splitting oracle."""
    dims = E.shape.dims
    witnesses = []
    for t in range(1, E.shape.total_dim + 1):
        for j in itertools.product(*[range(-n, 1) for n in dims]):
            if sum(j) == -t:
                dim = sum(
                    mult * kunneth_oracle(dims, [a + x for a, x in zip(degree, j)], t)
                    for degree, mult in E.summands
                )
                if dim:
                    witnesses.append((t, j, dim))
    return tuple(witnesses)


def test_zero_regular_examples():
    assert is_zero_regular(line_bundle([2, 2], (0, 0))).regular
    assert is_zero_regular(line_bundle([1, 1, 1], (0, 0, 0))).regular
    v = is_zero_regular(line_bundle([2, 2], (-1, -1)))
    assert not v.regular and v.witnesses
    E = line_bundle([2, 1], (2, 0)) + line_bundle([2, 1], (0, 1))
    assert is_zero_regular(E).regular


def test_witnesses_are_genuine():
    v = is_zero_regular(line_bundle([2, 2], (-1, -1)))
    for t, j, dim in v.witnesses:
        assert t >= 1 and sum(j) == -t
        assert all(-n <= x <= 0 for x, n in zip(j, (2, 2)))
        assert sum_cohomology_dim(line_bundle([2, 2], (-1, -1)), j, t) == dim > 0


def test_zero_regular_vs_brute():
    for shape in [(1, 1), (1, 2)]:
        for a in itertools.product(range(-2, 3), repeat=2):
            E = line_bundle(shape, a)
            verdict = is_zero_regular(E)
            assert verdict.witnesses == zero_regular_brute(E)
            assert verdict.regular == (not verdict.witnesses)


@settings(max_examples=80)
@given(bundles_st(max_mult=3))
def test_zero_regular_witnesses_match_brute(E):
    verdict = is_zero_regular(E)
    assert verdict.witnesses == zero_regular_brute(E)
    assert verdict.regular == (not verdict.witnesses)


def test_zero_regular_box_is_not_listed():
    # the box of (P^2)^12 has 3^12 twists j: one dense table of them is about 4 MB,
    # a list of the box's 12-tuples more than 70 MB
    E = line_bundle((2,) * 12, (-1,) + (0,) * 11)
    tracemalloc.start()
    try:
        verdict = is_zero_regular(E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.witnesses == ((2, (-2,) + (0,) * 11, 1),)
    assert peak < 16_000_000


def test_is_m_regular_examples():
    E = line_bundle([2, 2], (-3, 2))
    assert is_m_regular(E, (3, 0)).regular
    assert not is_m_regular(line_bundle([1, 1], (0, 0)), (-1, -1)).regular


@settings(max_examples=40)
@given(bundles_st(max_rank=2), st.data())
def test_m_regular_monotone(E, data):
    s = E.shape.s
    m = tuple(data.draw(st.integers(-2, 6), label="m") for _ in range(s))
    if not is_m_regular(E, m).regular:
        return
    e = tuple(data.draw(st.integers(0, 2), label="e") for _ in range(s))
    bigger = tuple(x + y for x, y in zip(m, e))
    assert is_m_regular(E, bigger).regular


@settings(max_examples=100, deadline=None)
@given(bundles_st(), st.data())
def test_m_regular_is_global_generation_of_the_twist(E, data):
    # the closed form the CLI prints as m_regular: E(m) is 0-regular iff every a + m >= 0
    m = tuple(data.draw(degree_coord, label="m") for _ in E.shape.dims)
    assert is_m_regular(E, m).regular == is_globally_generated(twist(E, m))


def test_regularity_index_examples():
    assert regularity_index(line_bundle([2, 2], (0, 0))) == 0
    assert regularity_index(line_bundle([2, 2], (-3, 2))) == 3
    assert regularity_index(line_bundle([2, 2], (5, 5))) == -5
    E = line_bundle([1, 2], (-1, 4)) + line_bundle([1, 2], (2, 2))
    assert regularity_index(E) == 1


@settings(max_examples=80)
@given(bundles_st())
def test_regularity_index_definitional(E):
    p = regularity_index(E)
    s = E.shape.s
    assert zero_regular_brute(twist(E, (p,) * s)) == ()
    assert zero_regular_brute(twist(E, (p - 1,) * s)) != ()


@settings(max_examples=40)
@given(bundles_st(max_rank=2), bundles_st(max_rank=2))
def test_regularity_index_of_sum_is_max(E, F):
    if E.shape != F.shape:
        return
    assert regularity_index(E + F) == max(regularity_index(E), regularity_index(F))


def test_single_bundle_closed_form():
    for a in itertools.product(range(-3, 4), repeat=2):
        E = line_bundle([2, 2], a)
        assert is_zero_regular(E).regular == (min(a) >= 0)


def test_sum_regular_iff_parts_regular():
    box = list(itertools.product(range(-2, 3), repeat=2))
    for a in box:
        for b in box:
            E, F = line_bundle([1, 1], a), line_bundle([1, 1], b)
            assert is_zero_regular(E + F).regular == (
                is_zero_regular(E).regular and is_zero_regular(F).regular
            )


def test_globally_generated():
    assert is_globally_generated(line_bundle([1, 1], (0, 0)))
    assert not is_globally_generated(line_bundle([1, 1], (1, -1)))
    E = line_bundle([2, 2], (1, 0)) + line_bundle([2, 2], (0, 2))
    assert is_globally_generated(E)


@settings(max_examples=40)
@given(bundles_st(max_rank=2))
def test_zero_regular_implies_globally_generated(E):
    if is_zero_regular(E).regular:
        assert is_globally_generated(E)


@settings(max_examples=30)
@given(bundles_st(max_rank=2), st.data())
def test_restriction_preserves_zero_regularity(E, data):
    if E.shape.s == 1 and E.shape.dims[0] == 1:
        return
    if not is_zero_regular(E).regular:
        return
    axis = data.draw(st.integers(0, E.shape.s - 1), label="axis")
    assert is_zero_regular(restrict_factor(E, axis)).regular


def test_restriction_preserves_zero_regularity_anchor():
    E = line_bundle([2, 2], (1, 0)) + line_bundle([2, 2], (0, 2))
    assert is_zero_regular(E).regular
    assert is_zero_regular(restrict_factor(E, 1)).regular


# ----------------------------------------------------------------------- aCM

def acm_brute(E, window=12):
    """Scan a wide diagonal window directly; independent of the interval engine."""
    total = E.shape.total_dim
    for i in range(1, total):
        for c in range(-window, window + 1):
            if sum_cohomology_dim(E, (c,) * E.shape.s, i):
                return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_acm_witnesses_are_the_least_twist_per_degree(data):
    # the intermediate degrees need a sections and a top factor, so they live inside the window
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5), label="dims"))
    degrees = data.draw(st.lists(st.tuples(*[degree_coord] * len(dims)), min_size=2, max_size=4))
    E = LineBundleSum(dims, tuple((degree, 1) for degree in degrees))
    least = {}
    for t in scan_window(E, (0,) * len(dims)):
        for i in range(1, E.shape.total_dim):
            if i not in least and any(kunneth_oracle(dims, [a + t for a in degree], i)
                                      for degree, _ in E.summands):
                least[i] = t
    assert is_acm(E) == (not least, tuple(sorted(least.items())))


def test_acm_examples():
    ok, _ = is_acm(line_bundle([2, 2], (3, 3)))
    assert ok
    ok, _ = is_acm(line_bundle([1, 2], (0, 1)))
    assert ok
    ok, witnesses = is_acm(line_bundle([1, 2], (0, 2)))
    assert not ok
    assert witnesses == ((1, -2),)


def test_acm_witnesses_are_genuine():
    E = line_bundle([2, 3], (0, 4)) + line_bundle([2, 3], (1, 0))
    ok, witnesses = is_acm(E)
    if not ok:
        for i, t in witnesses:
            assert 0 < i < E.shape.total_dim
            assert sum_cohomology_dim(E, (t,) * 2, i) > 0


def test_acm_closed_form_examples():
    assert acm_closed_form((0, 0, 0), Shape((1, 1, 2)))
    assert acm_closed_form((0, 1), Shape((1, 2)))
    assert not acm_closed_form((0, 2), Shape((1, 2)))
    with pytest.raises(InputError) as e:
        acm_closed_form((0,), Shape((1, 2)))
    assert (e.value.code, str(e.value)) == ("E_SHAPE", "degree has length 1, shape has 2 factors")
    for bad in [0.5, True, "1"]:
        with pytest.raises(InputError) as e:
            acm_closed_form((0, bad), (1, 2))
        assert (e.value.code, str(e.value)) == (
            "E_SHAPE", f"degree entries must be integers, got {bad!r}"
        )


def test_acm_closed_form_matches_is_acm():
    for shape in [(1, 2), (2, 2)]:
        for a in itertools.product(range(-3, 4), repeat=2):
            E = line_bundle(shape, a)
            assert acm_closed_form(a, Shape(shape)) == is_acm(E)[0]


def test_acm_closed_form_matches_is_acm_three_factors():
    shape = Shape((1, 1, 2))
    for a in itertools.product(range(-3, 4), repeat=3):
        assert acm_closed_form(a, shape) == is_acm(line_bundle((1, 1, 2), a))[0]


def test_acm_dead_band_rescue():
    # middle factor's dead band covers the whole mixed window, so the
    # pairwise inequalities (which fail here) would give the wrong answer
    shape = Shape((1, 1, 2))
    a = (-4, -3, -2)
    assert a[0] - a[2] < -1
    assert acm_closed_form(a, shape)
    assert is_acm(line_bundle((1, 1, 2), a))[0]


def test_acm_closed_form_reduces_to_pairwise_at_two_factors():
    for dims in [(1, 2), (2, 3), (3, 3)]:
        shape = Shape(dims)
        for a in itertools.product(range(-5, 6), repeat=2):
            pairwise = (
                a[0] - a[1] >= -dims[0] and a[1] - a[0] >= -dims[1]
            )
            assert acm_closed_form(a, shape) == pairwise


def test_acm_vs_brute_window():
    for a in itertools.product(range(-2, 3), repeat=2):
        E = line_bundle([1, 2], a)
        assert is_acm(E)[0] == acm_brute(E)


@settings(max_examples=40)
@given(bundles_st(max_rank=2), st.integers(-3, 3))
def test_acm_diagonal_twist_invariant(E, c):
    shifted = twist(E, (c,) * E.shape.s)
    assert is_acm(E)[0] == is_acm(shifted)[0]


def test_acm_decided_by_intervals():
    E = line_bundle([2, 2], (0, 3))
    ok, witnesses = is_acm(E)
    assert not ok
    i, t = witnesses[0]
    assert t in nonvanishing_twist_intervals(E, (0, 0), i)


def test_regularity_box_and_table_guard_boundary(monkeypatch):
    import multicoh.core as core

    # the box of (P^4)^5 has 5^5 twists j; 33 distinct summands make 103125 (j, summand) pairs
    summands = tuple(((a, 0, 0, 0, 0), 1) for a in range(-1, 32))
    E = LineBundleSum((4,) * 5, summands[1:])
    assert is_m_regular(LineBundleSum((4,) * 5, summands), (1, 0, 0, 0, 0)).regular
    monkeypatch.setattr(core, "BOX_GUARD", 5**5)
    monkeypatch.setattr(core, "TABLE_GUARD", 5**5 * 32)
    assert is_zero_regular(E).regular
    with pytest.raises(InputError) as e:
        is_m_regular(LineBundleSum((4,) * 5, summands), (1, 0, 0, 0, 0))
    assert (e.value.code, str(e.value)) == (
        "E_GUARD", "103125 (twist, summand) pairs exceed the table guard of 100000")
    monkeypatch.setattr(core, "BOX_GUARD", 5**5 - 1)
    with pytest.raises(InputError) as e:
        is_zero_regular(E)
    assert (e.value.code, str(e.value)) == ("E_GUARD", "3125 twists exceed the box guard of 3124")
