"""Factor Koszul complexes and their Euler-level exactness certificates."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    Complex,
    InputError,
    LineBundleSum,
    Shape,
    euler_exactness_check,
    koszul_factor_complex,
    line_bundle,
    proposition_iso_dims,
)

from support import all_shapes, euler_by_alternating_sum, shapes_st


def test_terms_on_square():
    C = koszul_factor_complex([2, 2], 0, (0, 0))
    assert len(C.terms) == 4
    assert [T.degrees()[0] for T in C.terms] == [(0, 0), (-1, 0), (-2, 0), (-3, 0)]
    assert [T.rank for T in C.terms] == [1, 3, 3, 1]


def test_terms_with_twist():
    C = koszul_factor_complex([1, 1], 1, (0, 1))
    assert [T.degrees()[0] for T in C.terms] == [(0, 1), (0, 0), (0, -1)]
    assert [T.rank for T in C.terms] == [1, 2, 1]


@given(shapes_st, st.data())
def test_term_count_and_rank_sum(dims, data):
    axis = data.draw(st.integers(0, len(dims) - 1), label="axis")
    d = tuple(data.draw(st.integers(-3, 3), label="d") for _ in dims)
    C = koszul_factor_complex(dims, axis, d)
    n = dims[axis]
    assert len(C.terms) == n + 2
    assert sum(T.rank for T in C.terms) == 2 ** (n + 1)


def test_bad_axis():
    with pytest.raises(InputError):
        koszul_factor_complex([2, 2], 2, (0, 0))
    with pytest.raises(InputError):
        koszul_factor_complex([2, 2], -1, (0, 0))


def test_exactness_examples():
    C = koszul_factor_complex([2, 2], 0, (0, 0))
    assert euler_exactness_check(C)
    assert euler_exactness_check(C, (0, 0))
    assert all(euler_exactness_check(C, (t, t)) for t in range(-5, 6))
    assert euler_exactness_check(C, (2, -5))


def test_single_term_complex_is_not_exact():
    C = Complex(Shape((1, 1)), (line_bundle([1, 1], (0, 0)),))
    assert not euler_exactness_check(C)


def test_exactness_small_grid():
    for dims in [(1, 1), (2,), (1, 2)]:
        for axis in range(len(dims)):
            C = koszul_factor_complex(dims, axis, (0,) * len(dims))
            for w in itertools.product(range(-4, 5), repeat=len(dims)):
                assert euler_exactness_check(C, w)


def test_iso_dims():
    assert proposition_iso_dims([2, 2]) == ((1, 1),) * 4
    assert proposition_iso_dims([1, 1, 1]) == ((1, 1),) * 6
    assert proposition_iso_dims([3]) == ((1, 1),) * 2


def test_iso_dims_all_small_shapes():
    for dims in all_shapes(5):
        assert all(pair == (1, 1) for pair in proposition_iso_dims(dims))


def test_complex_shape_consistency():
    with pytest.raises(InputError):
        Complex(Shape((1, 1)), (line_bundle([2], (0,)),))


@st.composite
def complexes_st(draw, dims, center):
    """1-5 terms drawn from a pool of degrees near center, so degrees repeat and cancel.

    The pool degrees differ from one base degree along one drawn axis, so
    they share a column.  Each summand lands either alone (usually breaking
    exactness) or with its copy in the next term (cancelling), and factor
    complexes that fit are overlaid, so exact and non-exact complexes with
    one or several columns all occur.
    """
    coord = [st.integers(c - 4, c + 4) for c in center]
    degree = st.tuples(*coord)
    base = draw(degree)
    pool = [base]
    i = draw(st.integers(0, len(dims) - 1))
    for c in draw(st.lists(coord[i], max_size=2)):
        pool.append(base[:i] + (c,) + base[i + 1:])
    length = draw(st.integers(1, 5))
    terms = [[] for _ in range(length)]
    for axis in draw(st.lists(st.integers(0, len(dims) - 1), max_size=2)):
        if dims[axis] + 2 <= length:
            start = draw(st.integers(0, length - dims[axis] - 2))
            for r, T in enumerate(koszul_factor_complex(dims, axis, draw(degree)).terms):
                terms[start + r].extend(T.summands)
    for r in range(length):
        for _ in range(draw(st.integers(0 if terms[r] else 1, 2))):
            piece = (draw(st.sampled_from(pool)), draw(st.integers(1, 3)))
            terms[r].append(piece)
            if r + 1 < length and draw(st.booleans()):
                terms[r + 1].append(piece)
    return Complex(Shape(dims), tuple(LineBundleSum(Shape(dims), tuple(T)) for T in terms))


@settings(max_examples=300, deadline=None)
@given(shapes_st, st.data())
def test_exactness_check_matches_alternating_cohomology_sum(dims, data):
    """The column evaluation against sum_r (-1)^r sum_t (-1)^t h^t(T_r(w)).

    Degrees are drawn near -w and every twist within 2 of w is checked, so
    the terms' chi vanish or change sign there on every axis and a twist
    applied on the wrong axis changes the verdict; one far twist is added.
    """
    w = data.draw(st.tuples(*[st.integers(-48, 48)] * len(dims)), label="w")
    C = data.draw(complexes_st(dims, tuple(-x for x in w)), label="C")
    far = data.draw(st.tuples(*[st.integers(-50, 50)] * len(dims)), label="far")
    near = [tuple(map(sum, zip(w, e))) for e in itertools.product(range(-2, 3), repeat=len(dims))]
    for v in near + [far]:
        oracle = sum((-1) ** r * euler_by_alternating_sum(T, v) for r, T in enumerate(C.terms))
        assert euler_exactness_check(C, v) == (oracle == 0), v


def test_factor_complex_cache_leaves_equality_hash_and_repr_alone():
    A = koszul_factor_complex([2, 1], 0, (3, -1))
    B = koszul_factor_complex([2, 1], 0, (3, -1))
    assert euler_exactness_check(A, (5, -7))
    assert A == B and hash(A) == hash(B) and repr(A) == repr(B)
    assert "_columns" not in repr(A) and "_columns" in vars(A)
    assert A != koszul_factor_complex([2, 1], 1, (3, -1))


def test_factor_complex_is_one_column_along_its_axis():
    for dims in all_shapes(4):
        for axis in range(len(dims)):
            k, columns = koszul_factor_complex(dims, axis, (1,) * len(dims))._columns
            assert k == axis and len(columns) == 1 and len(columns[0][1]) == dims[axis] + 2
