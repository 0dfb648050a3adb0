"""Factor Koszul complexes and their Euler-level exactness certificates."""

import itertools
import json
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    Complex,
    InputError,
    LineBundleSum,
    Shape,
    core,
    euler_exactness_check,
    koszul,
    koszul_factor_complex,
    line_bundle,
    proposition_iso_dims,
)
from multicoh.core import _check_vector

from support import all_shapes, euler_by_alternating_sum, iso_dims_oracle, shapes_st


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


@pytest.mark.parametrize("axis", [0.5, 1.0, "0", None, True, False])
def test_axis_that_is_not_an_int_is_refused(axis):
    with pytest.raises(InputError) as e:
        koszul_factor_complex([2, 2], axis, (0, 0))
    assert (e.value.code, str(e.value)) == (
        "E_RANGE", f"factor index must be an integer, got {axis!r}")


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


def test_iso_dims_match_the_whole_corner_oracle():
    for dims in all_shapes(7) + [(5, 1, 9), (30,), (1,) * 40]:
        assert proposition_iso_dims(dims) == iso_dims_oracle(dims)


@pytest.mark.parametrize("shift", [-3, -1, 1, 2])
def test_iso_dims_are_computed_from_the_factor_cohomology(monkeypatch, shift):
    # shifting every coordinate before each cohomology call moves the pairs off (1, 1); the
    # per-axis products must then still agree with kunneth_dim on whole corner degrees
    line_cohomology = core._line_cohomology
    monkeypatch.setattr(core, "_line_cohomology",
                        lambda dims, a: line_cohomology(dims, [x + shift for x in a]))
    found = set()
    for dims in all_shapes(5):
        pairs = proposition_iso_dims(dims)
        assert pairs == iso_dims_oracle(dims)
        found.update(pairs)
    assert found - {(1, 1)}


def test_iso_dims_are_linear_in_the_factors():
    start = time.perf_counter()
    pairs = proposition_iso_dims((1,) * 20_000)
    assert time.perf_counter() - start < 2
    assert pairs == ((1, 1),) * 40_000


def test_complex_shape_consistency():
    with pytest.raises(InputError):
        Complex(Shape((1, 1)), (line_bundle([2], (0,)),))


def test_complex_takes_a_plain_shape():
    C = Complex((2, 2), (line_bundle([2, 2], (0, 0)),))
    assert C.shape == Shape((2, 2)) and C == Complex(Shape((2, 2)), (line_bundle([2, 2], (0, 0)),))
    assert not euler_exactness_check(C)
    with pytest.raises(InputError) as e:
        Complex((2, 2), (line_bundle([2], (0,)),))
    assert (e.value.code, str(e.value)) == ("E_SHAPE", "complex terms must share the complex shape")


@pytest.mark.parametrize("term", [None, (((0, 0), 1),), [line_bundle([2, 2], (0, 0))], 0])
def test_complex_refuses_a_term_that_is_not_a_line_bundle_sum(term):
    with pytest.raises(InputError) as e:
        Complex((2, 2), (line_bundle([2, 2], (0, 0)), term))
    assert (e.value.code, str(e.value)) == (
        "E_SHAPE", f"complex term {type(term).__name__} is not a line bundle sum")


def test_complex_stores_a_list_of_terms_as_a_tuple():
    terms = [line_bundle([1, 2], (0, 0)), line_bundle([1, 2], (-1, 0))]
    C = Complex(Shape((1, 2)), terms)
    assert C.terms == tuple(terms)
    assert hash(C) == hash(Complex(Shape((1, 2)), tuple(terms)))


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
    """One column of n+2 entries, kept through n zero checks and dropped at the (n+1)-th."""
    for dims in all_shapes(4):
        for axis in range(len(dims)):
            C = koszul_factor_complex(dims, axis, (1,) * len(dims))
            k, columns = C._columns
            assert k == axis and len(columns) == 1 and len(columns[0][1]) == dims[axis] + 2
            for t in range(dims[axis] + 1):
                assert len(columns) == 1 and len(columns[0][2]) == t
                w = tuple(t if i == axis else -t for i in range(len(dims)))
                assert euler_exactness_check(C, w)
            assert C._columns == (axis, [])


def test_column_is_kept_until_it_vanishes_at_n_plus_1_distinct_twists():
    # chi(O(w)) on P^2 is (w+1)(w+2)/2: zero at w = -1 and -2 only, x = w + 2 = 1 and 0
    C = Complex(Shape((2,)), (line_bundle([2], (0,)),))
    assert euler_exactness_check(C, (-1,)) and euler_exactness_check(C, (-2,))
    assert euler_exactness_check(C, (-1,))
    assert not euler_exactness_check(C, (0,))
    assert not euler_exactness_check(C, (3,))
    # a nonzero sum of degree 2 has at most two roots, so the column is never dropped
    k, columns = C._columns
    assert k == 0 and len(columns) == 1 and columns[0][2] == {0, 1}
    assert not euler_exactness_check(C, (0,)) and not euler_exactness_check(C, (5,))
    assert euler_exactness_check(C, (-2,)) and len(C._columns[1]) == 1


@settings(max_examples=150, deadline=None)
@given(shapes_st, st.data())
def test_pruned_checks_match_fresh_complexes_and_cohomology(dims, data):
    """One complex checked over a shuffled window n_i+2 wide on every axis.

    Each verdict must agree with an unpruned copy checked once and with the
    alternating cohomology sum, whatever the columns seen so far.
    """
    w = data.draw(st.tuples(*[st.integers(-20, 20)] * len(dims)), label="w")
    C = data.draw(complexes_st(dims, tuple(-x for x in w)), label="C")
    window = list(itertools.product(*[range(c - 1, c + n + 1) for c, n in zip(w, dims)]))
    # window twists again, some with one coordinate moved far: the column axis's x
    # repeats under other coordinates, which the skip of known zeros must not change
    moved = st.tuples(st.sampled_from(window), st.integers(0, len(dims) - 1),
                      st.integers(-60, 60)).map(lambda m: m[0][:m[1]] + (m[2],) + m[0][m[1] + 1:])
    again = data.draw(st.lists(st.sampled_from(window) | moved, max_size=12), label="again")
    for v in data.draw(st.permutations(window), label="order") + again:
        oracle = sum((-1) ** r * euler_by_alternating_sum(T, v) for r, T in enumerate(C.terms))
        fresh = Complex(C.shape, C.terms)
        assert euler_exactness_check(C, v) == euler_exactness_check(fresh, v) == (oracle == 0), v


def test_pruned_column_costs_no_binom_poly_call(monkeypatch):
    calls = []
    real = koszul.binom_poly
    monkeypatch.setattr(koszul, "binom_poly", lambda x, n: calls.append(n) or real(x, n))
    C = koszul_factor_complex((1000, 1), 0, (0, 0))
    assert euler_exactness_check(C) and len(calls) == 1002
    for dims, axis in [((1000, 1), 1), ((3, 1), 0)]:
        C = koszul_factor_complex(dims, axis, (0, 0))
        n = dims[axis]
        calls.clear()
        for t in range(n + 1):
            assert euler_exactness_check(C, (t, t))
        assert len(calls) == (n + 1) * (n + 2)
        calls.clear()
        assert all(euler_exactness_check(C, w) for w in [(0, 0), (7, -5), (-9, 4)])
        assert calls == []


def test_repeated_x_costs_no_binom_poly_call_after_the_first(monkeypatch):
    # the column of a factor complex along axis 0 depends on w_0 alone
    calls = []
    real = koszul.binom_poly
    monkeypatch.setattr(koszul, "binom_poly", lambda x, n: calls.append(n) or real(x, n))
    C = koszul_factor_complex((3, 2, 1), 0, (0, 0, 0))
    for t in range(3):
        calls.clear()
        assert euler_exactness_check(C, (t, 0, 0)) and len(calls) == 5
        calls.clear()
        for rest in itertools.product(range(-4, 5), range(-3, 4)):
            assert euler_exactness_check(C, (t,) + rest)
        assert calls == []
    assert len(C._columns[1]) == 1
    # a column seen nonzero is evaluated at every twist
    C = Complex(Shape((1, 1)), (line_bundle([1, 1], (0, 0)),))
    calls.clear()
    assert not euler_exactness_check(C, (0, 0)) and not euler_exactness_check(C, (0, 1))
    assert len(calls) == 4


class _Int(int):
    pass


@pytest.mark.parametrize("twist", [
    [1, -2], [1, 0.5], (0, True), [False, 0], (0, 1.0), (0, "1"), "01", (0, 0, 0), (0,),
    [0, 0, 0], (_Int(1), -2), [_Int(3), _Int(0)], (None, 0),
])
def test_twist_validation_matches_check_vector(twist):
    # pruned and unpruned complexes, exact and not, refuse or accept a twist alike
    pruned = koszul_factor_complex((1, 2), 0, (0, 0))
    for t in range(2):
        euler_exactness_check(pruned, (t, 0))
    assert pruned._columns == (0, [])
    for C in [pruned, koszul_factor_complex((1, 2), 1, (0, 0)),
              Complex(Shape((1, 2)), (line_bundle([1, 2], (0, 0)),))]:
        try:
            v = _check_vector(C.shape, twist, "twist")
        except InputError as e:
            with pytest.raises(InputError) as got:
                euler_exactness_check(C, twist)
            assert (got.value.code, str(got.value)) == (e.code, str(e))
        else:
            fresh = Complex(C.shape, C.terms)
            assert euler_exactness_check(C, twist) == euler_exactness_check(fresh, tuple(v))


@settings(max_examples=150, deadline=None)
@given(shapes_st, st.data())
def test_factor_complex_matches_its_checked_build(dims, data):
    """The factor complex built without checks equals the one built through every check."""
    d = data.draw(st.tuples(*[st.integers(-50, 50)] * len(dims)), label="d")
    spell = data.draw(st.sampled_from([tuple, list, lambda v: tuple(map(_Int, v))]), label="spell")
    for axis in range(len(dims)):
        n = dims[axis]
        trusted = koszul_factor_complex(dims, axis, spell(d))
        checked = Complex(Shape(dims), tuple(
            LineBundleSum(Shape(dims), ((tuple(a - r if i == axis else a for i, a in enumerate(d)),
                                         comb(n + 1, r)),))
            for r in range(n + 2)))
        assert trusted._columns == checked._columns
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert json.dumps(trusted.to_json()) == json.dumps(checked.to_json())
        for T, U in zip(trusted.terms, checked.terms, strict=True):
            assert T == U and hash(T) == hash(U) and T.summands == U.summands


@pytest.mark.parametrize("d", [(0, True), (0, 1.0), (0, "1"), (0,), (0, 0, 0), [0, None]])
def test_bad_start_degree_is_refused_as_check_vector_refuses_it(d):
    with pytest.raises(InputError) as want:
        _check_vector(Shape((2, 2)), d, "degree")
    for axis in range(2):
        with pytest.raises(InputError) as got:
            koszul_factor_complex((2, 2), axis, d)
        assert got.value.code == "E_SHAPE"
        assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))


def test_columns_are_folded_once_per_complex(monkeypatch):
    calls = []
    fold = koszul._fold
    monkeypatch.setattr(koszul, "_fold", lambda terms: calls.append(len(terms)) or fold(terms))
    C = koszul_factor_complex((2, 1), 0, (0, 0))
    D = Complex(C.shape, C.terms)
    E = Complex(Shape((1,)), (line_bundle([1], (0,)),))
    assert calls == [4, 4, 1]
    for w in itertools.product(range(-4, 5), repeat=2):
        assert euler_exactness_check(C, w) and euler_exactness_check(D, w)
        euler_exactness_check(E, w[:1])
    assert calls == [4, 4, 1]


def test_koszul_guard_boundary():
    # KOSZUL_GUARD terms are built; one more term is refused before any is built
    n = koszul.KOSZUL_GUARD - 2
    assert len(koszul_factor_complex((n, 1), 0, (0, 0)).terms) == koszul.KOSZUL_GUARD
    with pytest.raises(InputError) as e:
        koszul_factor_complex((1, n + 1), 1, (0, 0))
    assert (e.value.code, str(e.value)) == (
        "E_GUARD", f"{koszul.KOSZUL_GUARD + 1} terms exceed the koszul guard of 3000")
