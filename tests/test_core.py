"""Cohomology engine: factor dims, Künneth, chi, duals, twist intervals."""

import itertools
import json
from enum import IntEnum
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from multicoh import (
    InputError,
    Shape,
    binom_poly,
    bundle_from_json,
    bundle_to_json,
    cohomology_table,
    dualizing_degree,
    euler_characteristic,
    factor_cohomology_dim,
    kunneth_dim,
    line_bundle,
    nonvanishing_twist_intervals,
    restrict_factor,
    serre_dual,
    sum_cohomology_dim,
    twist,
)

from support import (
    bundles_st,
    count_monomials,
    count_monomials_literal,
    euler_by_alternating_sum,
    h0_oracle,
    kunneth_oracle,
    scan_window,
)


# ---------------------------------------------------------------- factor dims

def test_factor_dim_examples():
    assert factor_cohomology_dim(1, -2, 1) == 1
    assert factor_cohomology_dim(2, 3, 0) == 10
    assert all(factor_cohomology_dim(2, -1, q) == 0 for q in range(0, 6))
    assert factor_cohomology_dim(3, -5, 3) == 4


def test_factor_dim_monomial_oracle():
    for n in range(1, 4):
        for a in range(0, 7):
            assert factor_cohomology_dim(n, a, 0) == count_monomials(n + 1, a)


def test_factor_dim_duality():
    for n in range(1, 5):
        for a in range(-9, 9):
            assert factor_cohomology_dim(n, a, n) == factor_cohomology_dim(
                n, -a - n - 1, 0
            )


@given(st.integers(1, 4), st.integers(-10, 10))
def test_factor_dim_at_most_one_q(n, a):
    nonzero = [q for q in range(0, n + 1) if factor_cohomology_dim(n, a, q)]
    assert len(nonzero) <= 1
    assert all(q in (0, n) for q in nonzero)


def test_factor_dim_rejects_bad_n():
    with pytest.raises(InputError) as e:
        factor_cohomology_dim(0, 1, 0)
    assert e.value.code == "E_RANGE"


def test_count_monomials_matches_literal_enumeration():
    for nvars in range(1, 5):
        for deg in range(0, 7):
            assert count_monomials(nvars, deg) == count_monomials_literal(nvars, deg)


# ------------------------------------------------------------------- kunneth

def test_kunneth_examples():
    assert kunneth_dim([1, 1], (-2, -2), 2) == 1
    assert kunneth_dim([2, 2], (-3, 1), 2) == 3
    assert kunneth_dim([2, 3], (-3, -4), 5) == 1


def test_kunneth_vs_splitting_oracle():
    shape = (1, 2)
    for a in itertools.product(range(-5, 6), repeat=2):
        for t in range(0, 4):
            assert kunneth_dim(shape, a, t) == kunneth_oracle(shape, a, t)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple), st.data())
def test_kunneth_vs_splitting_oracle_drawn_shapes(dims, data):
    a = tuple(data.draw(st.integers(-n - 3, 3), label="a_i") for n in dims)
    for t in range(-1, sum(dims) + 2):
        assert kunneth_dim(dims, a, t) == kunneth_oracle(dims, a, t)


TWENTY_FACTORS = (1, 2, 1, 3, 1, 1, 2, 4, 1, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kunneth_vs_splitting_oracle_twenty_factors(data):
    # Sections or top on every factor, so the product is not almost always dead.
    a = tuple(
        data.draw(st.one_of(st.integers(0, 3), st.integers(-n - 4, -n - 1)), label="a_i")
        for n in TWENTY_FACTORS
    )
    dims = [kunneth_dim(TWENTY_FACTORS, a, t) for t in range(sum(TWENTY_FACTORS) + 1)]
    assert dims == [kunneth_oracle(TWENTY_FACTORS, a, t) for t in range(len(dims))]
    assert sum(1 for dim in dims if dim) == 1


def test_kunneth_sections_vs_monomial_product():
    for shape in [(1,), (2,), (1, 1), (1, 2), (1, 1, 1)]:
        for a in itertools.product(range(-2, 5), repeat=len(shape)):
            assert kunneth_dim(shape, a, 0) == h0_oracle(shape, a)


def test_kunneth_length_mismatch():
    with pytest.raises(InputError) as e:
        kunneth_dim([1, 1], (0,), 0)
    assert e.value.code == "E_SHAPE"


def test_binom_poly_is_the_falling_factorial():
    for n in range(1, 7):
        for x in range(-50, 51):
            falling = 1
            for i in range(n):
                falling *= x - i
            assert binom_poly(x, n) == Fraction(falling, factorial(n))


# ------------------------------------------------------------------ sum dims

def test_sum_dim_examples():
    O = line_bundle([2, 2], (0, 0))
    assert sum_cohomology_dim(O + O, (0, 0), 0) == 2
    E = line_bundle([2, 2], (0, 3))
    assert sum_cohomology_dim(E, (-3, -3), 2) == 1
    assert sum_cohomology_dim(E, (-3, -3), 2) == kunneth_dim([2, 2], (-3, 0), 2)
    assert sum_cohomology_dim(line_bundle([1, 1], (1, 1)), (0, 0), 0) == 4


@settings(max_examples=60)
@given(bundles_st(), bundles_st(), st.integers(0, 6))
def test_sum_dim_additive(E, F, t):
    if E.shape != F.shape:
        return
    d = (0,) * E.shape.s
    both = sum_cohomology_dim(E + F, d, t)
    assert both == sum_cohomology_dim(E, d, t) + sum_cohomology_dim(F, d, t)


# --------------------------------------------------------- euler characteristic

def test_euler_examples():
    for shape in [(1,), (2, 2), (1, 2, 1)]:
        assert euler_characteristic(line_bundle(shape, (0,) * len(shape))) == 1
    assert euler_characteristic(line_bundle([1, 3], (-1, 2))) == 0
    assert euler_characteristic(line_bundle([1, 4], (-1, -7))) == 0
    assert euler_characteristic(line_bundle([1, 1], (1, 1))) == 4


def test_euler_alternating_sum_small_shapes():
    for shape in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]:
        s = len(shape)
        for a in itertools.product(range(-6, 7), repeat=s):
            E = line_bundle(shape, a)
            assert euler_characteristic(E) == euler_by_alternating_sum(E)


@settings(max_examples=80)
@given(bundles_st(), st.data())
def test_euler_alternating_sum_sampled(E, data):
    d = tuple(
        data.draw(st.integers(-4, 4), label="twist") for _ in range(E.shape.s)
    )
    assert euler_characteristic(E, d) == euler_by_alternating_sum(E, d)


# ------------------------------------------------------- dual / twist / shape

def test_serre_dual_examples():
    E = line_bundle([2, 2], (2, -1)) + line_bundle([2, 2], (0, 0))
    D = serre_dual(E)
    assert D.degrees() == [(-2, 1), (0, 0)]
    assert serre_dual(D) == E


def test_twist_examples():
    E = line_bundle([1, 1], (1, 2))
    assert twist(E, (-1, -2)).degrees() == [(0, 0)]
    assert twist(twist(E, (3, -5)), (-3, 5)) == E
    with pytest.raises(InputError):
        twist(E, (1,))


def test_serre_duality_dimension_identity():
    shape = (1, 2)
    omega = dualizing_degree(shape)
    total = sum(shape)
    E = line_bundle(shape, (2, -1)) + line_bundle(shape, (0, 3))
    for d in itertools.product(range(-4, 5), repeat=2):
        for t in range(0, total + 1):
            lhs = sum_cohomology_dim(E, d, t)
            dual_d = tuple(-x + w for x, w in zip(d, omega))
            rhs = sum_cohomology_dim(serre_dual(E), dual_d, total - t)
            assert lhs == rhs


def test_vector_entries_accept_int_subclasses_and_refuse_bool_and_float():
    class Level(IntEnum):
        LOW = -1
        HIGH = 2

    assert kunneth_dim([1, 1], (Level.HIGH, 0), 0) == 3
    assert euler_characteristic(line_bundle([1, 1], (Level.LOW, Level.HIGH)), (Level.HIGH, 0)) == 6
    for bad in [True, False, 1.0, 2.5, "1", None]:
        for call, what in [
            (lambda v: kunneth_dim([1, 1], v, 0), "degree"),
            (lambda v: line_bundle([1, 1], v), "degree"),
            (lambda v: euler_characteristic(line_bundle([1, 1], (0, 0)), v), "twist"),
        ]:
            with pytest.raises(InputError) as e:
                call((0, bad))
            assert e.value.code == "E_SHAPE"
            assert str(e.value) == f"{what} entries must be integers, got {bad!r}"
    with pytest.raises(InputError) as e:
        sum_cohomology_dim(line_bundle([1, 1], (0, 0)), (0, 0, 0), 0)
    assert (e.value.code, str(e.value)) == ("E_SHAPE", "twist has length 3, shape has 2 factors")


def test_shape_validation():
    assert Shape((2, 2)).total_dim == 4
    assert len(Shape((1, 2, 3))) == 3
    for bad in [(), (0,), (2, -1), (1.5,)]:
        with pytest.raises(InputError) as e:
            Shape(tuple(bad))
        assert e.value.code == "E_SHAPE"


def test_bundle_canonical_form():
    a = line_bundle([1, 1], (0, 1))
    b = line_bundle([1, 1], (-2, 3))
    assert (a + b + a).summands == ((( -2, 3), 1), ((0, 1), 2))
    assert a + b == b + a
    assert str(a + b + a) == "O(-2,3) + O(0,1)^2"
    with pytest.raises(InputError):
        line_bundle([1, 1], (0, 1)) + line_bundle([1, 2], (0, 1))


def test_rank_and_degrees():
    E = line_bundle([2], (1,)) + line_bundle([2], (1,)) + line_bundle([2], (5,))
    assert E.rank == 3
    assert E.degrees() == [(1,), (1,), (5,)]


# ------------------------------------------------------------------ restriction

def test_restrict_factor_examples():
    E = line_bundle([2, 2], (3, -1))
    R = restrict_factor(E, 0)
    assert R.shape == Shape((1, 2))
    assert R.degrees() == [(3, -1)]
    # point factors drop out together with their degree coordinate
    R2 = restrict_factor(line_bundle([1, 2], (3, -1)), 0)
    assert R2.shape == Shape((2,))
    assert R2.degrees() == [(-1,)]
    with pytest.raises(InputError):
        restrict_factor(E, 2)
    with pytest.raises(InputError):
        restrict_factor(line_bundle([1], (0,)), 0)


# -------------------------------------------------------------- twist intervals

def test_interval_examples():
    E = line_bundle([2, 2], (0, 3))
    assert nonvanishing_twist_intervals(E, (-1, -1), 2).parts == ((-2, -2),)
    O = line_bundle([2, 2], (0, 0))
    assert nonvanishing_twist_intervals(O, (0, 0), 2).is_empty
    # extreme degrees come back as explicit half-lines, never truncated
    low = nonvanishing_twist_intervals(line_bundle([1, 1], (1, 1)), (0, 0), 0)
    assert low.parts == ((-1, None),)
    high = nonvanishing_twist_intervals(O, (0, 0), 4)
    assert high.parts == ((None, -3),)


def test_interval_t_range_check():
    E = line_bundle([1, 1], (0, 0))
    with pytest.raises(InputError):
        nonvanishing_twist_intervals(E, (0, 0), 3)
    with pytest.raises(InputError):
        nonvanishing_twist_intervals(E, (0, 0), -1)


@settings(max_examples=150, deadline=None)
@given(bundles_st(), st.data())
def test_intervals_match_direct_scan(E, data):
    s = E.shape.s
    j = tuple(data.draw(st.integers(-3, 0), label="j") for _ in range(s))
    for t in range(E.shape.total_dim + 1):
        iset = nonvanishing_twist_intervals(E, j, t)
        for tau in scan_window(E, j):
            dim = sum(
                mult * kunneth_oracle(E.shape.dims, [a + x + tau for a, x in zip(degree, j)], t)
                for degree, mult in E.summands
            )
            assert (tau in iset) == (dim > 0)


def _shift(parts, c):
    return tuple(
        (None if lo is None else lo + c, None if hi is None else hi + c) for lo, hi in parts
    )


@settings(max_examples=150, deadline=None)
@given(bundles_st(), st.integers(-20, 20), st.data())
def test_intervals_twist_shift(E, c, data):
    s = E.shape.s
    j = tuple(data.draw(st.integers(-4, 4), label="j") for _ in range(s))
    moved = tuple(x + c for x in j)
    for t in range(E.shape.total_dim + 1):
        got = nonvanishing_twist_intervals(E, moved, t).parts
        assert got == _shift(nonvanishing_twist_intervals(E, j, t).parts, -c)


# ------------------------------------------------------------------- tables

def test_cohomology_table():
    # h^1(O(-2+d1)) x h^0(O(d2)) is the only contributing product here
    E = line_bundle([1, 1], (-2, 0))
    rows = cohomology_table(E, 1).to_rows()
    got = [(r["t"], tuple(r["twist"]), r["dim"]) for r in rows]
    assert got == [
        (1, (-1, 0), 2),
        (1, (-1, 1), 4),
        (1, (0, 0), 1),
        (1, (0, 1), 2),
    ]


@settings(max_examples=40, deadline=None)
@given(bundles_st())
def test_cohomology_table_matches_oracle(E):
    dims = E.shape.dims
    want = []
    for d in itertools.product(range(-2, 3), repeat=len(dims)):
        for t in range(sum(dims) + 1):
            dim = sum(
                mult * kunneth_oracle(dims, [a + x for a, x in zip(degree, d)], t)
                for degree, mult in E.summands
            )
            if dim:
                want.append((t, d, dim))
    assert cohomology_table(E, 2).rows == tuple(sorted(want))


# ---------------------------------------------------------------------- json

def test_bundle_json_round_trip():
    E = line_bundle([2, 2], (0, 3)) + line_bundle([2, 2], (0, 3))
    text = bundle_to_json(E)
    assert json.loads(text) == {
        "shape": [2, 2],
        "summands": [{"degree": [0, 3], "mult": 2}],
    }
    assert bundle_from_json(text) == E


@settings(max_examples=60)
@given(bundles_st())
def test_bundle_json_round_trip_random(E):
    assert bundle_from_json(bundle_to_json(E)) == E


def test_bundle_json_defaults_and_errors():
    E = bundle_from_json('{"shape":[1,1],"summands":[{"degree":[0,1]}]}')
    assert E.summands == (((0, 1), 1),)
    for bad in [
        "not json",
        '{"shape":[1,1]}',
        '{"shape":[1,1],"summands":[]}',
        '{"shape":[1,1],"summands":[{"degree":[0]}]}',
        '{"shape":[1,1],"summands":[{"degree":[0,0],"mult":0}]}',
        '{"shape":[1,1],"summands":[{"degree":[0,0],"extra":1}]}',
        '{"shape":[0],"summands":[{"degree":[1]}]}',
    ]:
        with pytest.raises(InputError) as e:
            bundle_from_json(bad)
        assert e.value.code == "E_JSON"
