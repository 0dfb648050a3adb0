"""Koszul-type resolutions of one factor's coordinate forms, checked numerically.

For factor k of dimension n, the complex built from the n+1 coordinate
linear forms of that factor has n+2 terms; the r-th term is O(d - r*e_k)
with multiplicity C(n+1, r).  Exactness is certified here at the Euler
characteristic level: the alternating sum of chi over the terms of an
exact complex is zero for every extra twist.

chi is a product over the axes, so the check sums each column of the
signed degree multiset along one axis, the first where the degrees differ
(for a factor complex, its own axis: an (n+1)-th finite difference of a
degree-n polynomial), before multiplying by the other axes' values.  A
column sum depends on w_k alone, so a check skips a column already seen to
vanish at that w_k.  The sum is a polynomial of degree at most n_k in w_k:
a column seen to vanish at n_k+1 distinct w_k is zero at every twist, and
the complex drops it, while one seen nonzero never gets that far.

The same resolutions identify each factor's one-dimensional corner
cohomology H^{n_k} of O(-(n_k+1)*e_k) with the top cohomology of the
dualizing sheaf and with H^0 of the structure sheaf; proposition_iso_dims
computes both sides of each identification.
"""

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from operator import mul

from .core import (
    InputError,
    LineBundleSum,
    Shape,
    _as_shape,
    _canonical,
    _check_vector,
    _refuse_past,
    binom_poly,
    bundle_to_doc,
    factor_cohomology_dim,
)

KOSZUL_GUARD = 3_000  # terms of a factor complex; build plus zero-twist check: 0.01 s at n = 3000


def _fold(terms):
    """sum_r (-1)^r terms[r] as (k, columns), along the first axis k where the degrees differ.

    Axis 0 is taken if they differ nowhere; exactness does not depend on the
    axis, and a factor complex's degrees differ only on its own.  Zero
    coefficients are dropped; a column (rest, entries, roots) lists the
    entries (a_k, c) whose degrees agree off axis k, keyed by those other
    coordinates rest; roots holds the x = w_k + n_k at which the checks found
    the column's sum zero.
    """
    signed: dict = {}
    for r, term in enumerate(terms):
        for degree, mult in term.summands:
            signed[degree] = signed.get(degree, 0) + (-mult if r & 1 else mult)
    signed = {a: c for a, c in signed.items() if c}
    k = next((i for i, values in enumerate(zip(*signed)) if len(set(values)) > 1), 0)
    columns: dict = {}
    for a, c in signed.items():
        columns.setdefault(a[:k] + a[k + 1:], []).append((a[k], c))
    return k, [(rest, entries, set()) for rest, entries in columns.items()]


@dataclass(frozen=True)
class Complex:
    """A finite complex of line bundle sums, terms[r] at position r; _fold runs when it is made."""

    shape: Shape
    terms: tuple[LineBundleSum, ...]

    def __post_init__(self):
        shape, terms = _as_shape(self.shape), tuple(self.terms)
        for term in terms:
            if not isinstance(term, LineBundleSum):
                kind = type(term).__name__
                raise InputError("E_SHAPE", f"complex term {kind} is not a line bundle sum")
            if term.shape != shape:
                raise InputError("E_SHAPE", "complex terms must share the complex shape")
        self.__dict__.update(shape=shape, terms=terms, _columns=_fold(terms))

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.dims),
            "terms": [bundle_to_doc(term)["summands"] for term in self.terms],
        }


def koszul_factor_complex(shape, axis: int, d) -> Complex:
    """The coordinate-form complex of one factor, twisted to start at O(d).

    Term r is O(d - r*e_axis) with multiplicity C(n+1, r), r = 0 .. n+1,
    where n is the dimension of the chosen factor.  More than KOSZUL_GUARD
    terms are refused with E_GUARD before any term is built.  Each term, one
    summand made from the checked d, is canonical as built and not checked again.
    """
    shape = _as_shape(shape)
    if not isinstance(axis, int) or isinstance(axis, bool):
        raise InputError("E_RANGE", f"factor index must be an integer, got {axis!r}")
    if not 0 <= axis < shape.s:
        raise InputError("E_RANGE", f"factor index {axis} out of range for {shape.s} factors")
    d = _check_vector(shape, d, "degree")
    n = shape.dims[axis]
    _refuse_past(n + 2, KOSZUL_GUARD, "terms", "koszul guard")
    head, a, tail = d[:axis], d[axis], d[axis + 1:]
    terms, mult = [], 1
    for r in range(n + 2):
        terms.append(_canonical(shape, ((head + (a - r,) + tail, mult),)))
        mult = mult * (n + 1 - r) // (r + 1)  # C(n+1, r+1), an exact division
    C = object.__new__(Complex)
    C.__dict__.update(shape=shape, terms=tuple(terms), _columns=_fold(terms))
    return C


def euler_exactness_check(C: Complex, extra_twist=None) -> bool:
    """Whether the alternating sum of chi(term(extra_twist)) vanishes.

    The columns of C, folded when it was made, are summed, skipped and dropped
    as the module docstring says; with none left, only the twist is validated:
    a tuple of plain ints is taken as it is, any other goes through _check_vector.
    """
    k, columns = C._columns
    dims = C.shape.dims
    d = (0,) * len(dims) if extra_twist is None else extra_twist
    if type(d) is tuple and len(d) == len(dims):
        for v in d:
            if type(v) is not int:
                d = _check_vector(C.shape, d, "twist")
                break
    else:
        d = _check_vector(C.shape, d, "twist")
    if not columns:
        return True
    n = dims[k]
    x = d[k] + n
    total = 0
    for column in columns[:]:
        rest, entries, roots = column
        if x in roots:
            continue
        prod = 0
        for a, c in entries:
            prod += c * binom_poly(a + x, n)
        if prod:
            for a, w, m in zip(rest, d[:k] + d[k + 1:], dims[:k] + dims[k + 1:]):
                prod *= binom_poly(a + w + m, m)
            total += prod
        else:
            roots.add(x)
            if len(roots) > n:
                columns.remove(column)
    return total == 0


def proposition_iso_dims(shape) -> tuple[tuple[int, int], ...]:
    """Dimension pairs for the corner cohomology identifications.

    For each factor k, two pairs: dim H^{n_k} of O(-(n_k+1)*e_k) against
    dim H^{dim X} of the dualizing sheaf, and dim H^0(O) against the same
    factor corner.  All pairs are (1, 1) on every shape.  By Kunneth each
    side is a product over the axes of one factor's H^0(O) or corner H^{n_i},
    so prefix and suffix products give every corner in linear time.
    """
    dims = _as_shape(shape).dims
    sections = [factor_cohomology_dim(n, 0, 0) for n in dims]
    tops = [factor_cohomology_dim(n, -n - 1, n) for n in dims]
    before = [*accumulate(sections, mul, initial=1)]
    after = [*accumulate(reversed(sections), mul, initial=1)][::-1]
    top, h0 = prod(tops), before[-1]
    corners = [before[k] * c * after[k + 1] for k, c in enumerate(tops)]
    return tuple(pair for corner in corners for pair in ((corner, top), (h0, corner)))
