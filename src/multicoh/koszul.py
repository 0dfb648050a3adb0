"""Koszul-type resolutions of one factor's coordinate forms, checked numerically.

For factor k of dimension n, the complex built from the n+1 coordinate
linear forms of that factor has n+2 terms; the r-th term is O(d - r*e_k)
with multiplicity C(n+1, r).  Exactness is certified here at the Euler
characteristic level: the alternating sum of chi over the terms of an
exact complex is zero for every extra twist.

The same resolutions identify each factor's one-dimensional corner
cohomology H^{n_k} of O(-(n_k+1)*e_k) with the top cohomology of the
dualizing sheaf and with H^0 of the structure sheaf; proposition_iso_dims
computes both sides of each identification.
"""

from dataclasses import dataclass
from math import comb

from .core import (
    InputError,
    LineBundleSum,
    Shape,
    _as_shape,
    _check_vector,
    _chi_raw,
    bundle_to_doc,
    dualizing_degree,
    kunneth_dim,
    line_bundle,
)


@dataclass(frozen=True)
class Complex:
    """A finite complex of line bundle sums; index in terms is homological position."""

    shape: Shape
    terms: tuple[LineBundleSum, ...]

    def __post_init__(self):
        for term in self.terms:
            if term.shape != self.shape:
                raise InputError("E_SHAPE", "complex terms must share the complex shape")

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.dims),
            "terms": [bundle_to_doc(term)["summands"] for term in self.terms],
        }


def koszul_factor_complex(shape, axis: int, d) -> Complex:
    """The coordinate-form complex of one factor, twisted to start at O(d).

    Term r is O(d - r*e_axis) with multiplicity C(n+1, r), r = 0 .. n+1,
    where n is the dimension of the chosen factor.
    """
    shape = _as_shape(shape)
    if not 0 <= axis < shape.s:
        raise InputError("E_RANGE", f"factor index {axis} out of range for {shape.s} factors")
    d = _check_vector(shape, d, "degree")
    n = shape.dims[axis]
    terms = []
    for r in range(n + 2):
        degree = tuple(a - r if i == axis else a for i, a in enumerate(d))
        terms.append(LineBundleSum(shape, ((degree, comb(n + 1, r)),)))
    return Complex(shape, tuple(terms))


def euler_exactness_check(C: Complex, extra_twist=None) -> bool:
    """Whether the alternating sum of chi(term(extra_twist)) vanishes."""
    dims = C.shape.dims
    if extra_twist is None:
        d = (0,) * len(dims)
    else:
        d = _check_vector(C.shape, extra_twist, "twist")
    total = 0
    sign = 1
    for term in C.terms:
        total += sign * _chi_raw(term.summands, dims, d)
        sign = -sign
    return total == 0


def proposition_iso_dims(shape) -> tuple[tuple[int, int], ...]:
    """Dimension pairs for the corner cohomology identifications.

    For each factor k, two pairs: dim H^{n_k} of O(-(n_k+1)*e_k) against
    dim H^{dim X} of the dualizing sheaf, and dim H^0(O) against the same
    factor corner.  All pairs are (1, 1) on every shape.
    """
    shape = _as_shape(shape)
    omega = dualizing_degree(shape)
    top = kunneth_dim(shape, omega, shape.total_dim)
    h0 = kunneth_dim(shape, (0,) * shape.s, 0)
    pairs = []
    for k, n in enumerate(shape.dims):
        corner_degree = tuple(-n - 1 if i == k else 0 for i in range(shape.s))
        corner = kunneth_dim(shape, corner_degree, n)
        pairs.append((corner, top))
        pairs.append((h0, corner))
    return tuple(pairs)
