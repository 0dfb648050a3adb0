"""Multigraded regularity and arithmetic Cohen-Macaulay tests for line bundle sums.

A bundle E is 0-regular when H^t(E(j)) = 0 for every t >= 1 and every
twist j with j_1 + ... + j_s = -t and -n_i <= j_i <= 0; it is m-regular
when E(m) is 0-regular.  For sums of line bundles, 0-regularity of O(a)
comes down to a >= 0 componentwise, which gives the closed form for the
regularity index used to seed the search.

E is aCM here when H^i(E(t, ..., t)) vanishes for every 0 < i < dim and
every integer t, decided exactly by one breakpoint walk of the diagonal
ray: an intermediate degree lives on bounded pieces only.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .core import (
    Degree,
    InputError,
    LineBundleSum,
    Shape,
    _ray_pieces,
    sum_cohomology_dim,
    twist,
)


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of a 0-regularity scan, with the nonvanishing region witnesses."""

    regular: bool
    witnesses: tuple[tuple[int, Degree, int], ...] = field(default=())

    def __bool__(self) -> bool:
        return self.regular

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "witnesses": [{"t": t, "j": list(j), "dim": dim} for t, j, dim in self.witnesses],
        }


@lru_cache(maxsize=None)
def _zero_regularity_region(shape: Shape) -> tuple[tuple[int, Degree], ...]:
    """The finite region (t, j) with t >= 1, sum(j) = -t, -n_i <= j_i <= 0."""
    region = []
    for j in product(*[range(-n, 1) for n in shape.dims]):
        t = -sum(j)
        if t >= 1:
            region.append((t, j))
    region.sort()
    return tuple(region)


def is_zero_regular(E: LineBundleSum) -> RegularityVerdict:
    """Scan the defining region; witnesses list every (t, j) with H^t(E(j)) != 0."""
    witnesses = []
    for t, j in _zero_regularity_region(E.shape):
        dim = sum_cohomology_dim(E, j, t)
        if dim:
            witnesses.append((t, j, dim))
    return RegularityVerdict(not witnesses, tuple(witnesses))


def is_m_regular(E: LineBundleSum, m) -> RegularityVerdict:
    """Whether E(m) is 0-regular."""
    return is_zero_regular(twist(E, m))


def regularity_index(E: LineBundleSum) -> int:
    """Least p such that E(p, ..., p) is 0-regular.

    For a sum of line bundles the closed form is max over summands and
    coordinates of -a_i.  The value is still verified against the
    definitional scan at p and p - 1, searching away from the seed if
    either check disagrees.
    """
    s = E.shape.s
    p = max(-a for degree, _ in E.summands for a in degree)
    diag = lambda c: (c,) * s
    while not is_m_regular(E, diag(p)).regular:
        p += 1
    while is_m_regular(E, diag(p - 1)).regular:
        p -= 1
    return p


def is_globally_generated(E: LineBundleSum) -> bool:
    """True exactly when every summand degree is componentwise >= 0."""
    return all(a >= 0 for degree, _ in E.summands for a in degree)


def is_acm(E: LineBundleSum) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Exact test for vanishing of all intermediate diagonal cohomology.

    Returns (acm, witnesses); each witness is one (i, t), t the least
    twist with H^i(E(t, ..., t)) != 0, for an intermediate degree 0 < i < dim.
    """
    shape = E.shape
    first: dict[int, int] = {}
    for i, lo, _ in _ray_pieces(E, (0,) * shape.s):
        if 0 < i < shape.total_dim:
            first[i] = min(lo, first.get(i, lo))
    witnesses = tuple(sorted(first.items()))
    return (not witnesses, witnesses)


def acm_closed_form(a, shape) -> bool:
    """Closed form for a single line bundle O(a), no cohomology calls.

    Along the diagonal ray O(a + t), factor l has sections for t >= -a_l,
    top cohomology for t <= -a_l - n_l - 1, and nothing in between (its
    dead band).  Intermediate total cohomology appears at exactly the t
    where no factor is dead, some factor is in sections and some is at
    the top.  Such t are confined to the window
    [min_l(-a_l), max_l(-a_l - n_l - 1)], so O(a) is aCM precisely when
    the dead bands jointly cover every integer in that window.

    For two factors the window collapses and the coverage test reduces
    to the pairwise inequalities a_1 - a_2 >= -n_1 and a_2 - a_1 >= -n_2;
    with three or more factors the pairwise form is strictly stronger
    than aCM (one factor's dead band can cover the window opened by the
    other two), so the coverage test is the form that stays exact.
    """
    shape = shape if isinstance(shape, Shape) else Shape(tuple(shape))
    a = tuple(a)
    if len(a) != shape.s:
        raise InputError("E_SHAPE", f"degree has length {len(a)}, shape has {shape.s} factors")
    dims = shape.dims
    lo = min(-x for x in a)
    hi = max(-x - n - 1 for x, n in zip(a, dims))
    if hi < lo:
        return True
    cursor = lo
    for dead_lo, dead_hi in sorted((-x - n, -x - 1) for x, n in zip(a, dims)):
        if dead_lo > cursor:
            return False
        cursor = max(cursor, dead_hi + 1)
        if cursor > hi:
            return True
    return cursor > hi
