"""Multigraded regularity and arithmetic Cohen-Macaulay tests for line bundle sums.

A bundle E is 0-regular when H^t(E(j)) = 0 for every t >= 1 and every twist j
with j_1 + ... + j_s = -t and -n_i <= j_i <= 0; it is m-regular when E(m) is
0-regular.  The 0-regularity test keeps the rows of core._box_rows (a dense
table of that box per degree, within its own guards) with t = -sum(j) >= 1.
O(a) is 0-regular exactly when a >= 0 componentwise, and a sum exactly when
every summand is, so the regularity index is a closed form.

E is aCM here when H^i(E(t, ..., t)) vanishes for every 0 < i < dim and
every integer t, decided exactly by the runs of core._diagonal_runs at
j = 0 (intermediate degrees live on bounded runs), a join that bounds its work too.
"""

from dataclasses import dataclass, field

from .core import (
    Degree,
    LineBundleSum,
    _as_shape,
    _box_rows,
    _check_vector,
    _diagonal_plan,
    _diagonal_runs,
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


def is_zero_regular(E: LineBundleSum) -> RegularityVerdict:
    """Witnesses list every (t, j, dim) with H^t(E(j)) != 0 in the defining box, sorted.

    The box join refuses more than core.BOX_GUARD twists j, or core.TABLE_GUARD
    (j, summand) pairs, with E_GUARD before any of them.
    """
    rows = _box_rows(E, [range(-n, 1) for n in E.shape.dims])
    witnesses = tuple(row for row in rows if row[0] == -sum(row[1]) >= 1)
    return RegularityVerdict(not witnesses, witnesses)


def is_m_regular(E: LineBundleSum, m) -> RegularityVerdict:
    """Whether E(m) is 0-regular."""
    return is_zero_regular(twist(E, m))


def regularity_index(E: LineBundleSum) -> int:
    """Least p such that E(p, ..., p) is 0-regular: max over summands and coordinates of -a_i.

    O(a) is 0-regular exactly when a >= 0.  If a >= 0, every twist j of the
    box has a_i + j_i >= -n_i, so no factor of O(a + j) is top and it has
    no cohomology above degree 0.  If instead N = {i : a_i < 0} is not empty,
    take j_i = -n_i on N and 0 elsewhere: the factors in N are top and the
    others have sections, so H^t(O(a + j)) != 0 at t = -sum(j) >= 1.
    Cohomology is additive over summands, so E(p, ..., p) is 0-regular
    exactly when a_i + p >= 0 for every coordinate of every summand.
    """
    return max(-a for degree, _ in E.summands for a in degree)


def is_globally_generated(E: LineBundleSum) -> bool:
    """True exactly when every summand degree is componentwise >= 0."""
    return all(a >= 0 for degree, _ in E.summands for a in degree)


def is_acm(E: LineBundleSum) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Exact test for vanishing of all intermediate diagonal cohomology.

    Returns (acm, witnesses); each witness is one (i, t), t the least
    twist with H^i(E(t, ..., t)) != 0, for an intermediate degree 0 < i < dim.
    """
    first: dict[int, int] = {}
    for i, _, lo, *_ in _diagonal_runs(E.summands, _diagonal_plan(E.shape.dims, [0] * E.shape.s)):
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
    shape = _as_shape(shape)
    a = _check_vector(shape, a, "degree")
    dims = shape.dims
    cursor = min(-x for x in a)
    for dead_lo, dead_hi in sorted((-x - n, -x - 1) for x, n in zip(a, dims)):
        if dead_lo > cursor:
            return False
        cursor = max(cursor, dead_hi + 1)
    return True
